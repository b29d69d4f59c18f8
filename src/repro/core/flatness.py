"""Flatness tests: Algorithm 3 (l2) and Algorithm 4 (l1).

Both certify that an interval ``I`` is close to flat (conditionally
uniform or light) from collision statistics:

* an interval can be light — too few hits to matter (step 1 in both
  algorithms; such intervals cost little in the final distance), or
* its conditional collision probability ``||p_I||_2^2`` — estimated by
  the median-of-r [GR00] statistic — is close to the uniform level
  ``1 / |I|``.

Pseudocode note (README.md, "Design notes"): the papers' step 3 writes ``C(|S^1|, 2)`` as
the denominator, but the surrounding proofs (Eqs. 28–29 and 35) use
``C(|S^i_I|, 2)``; we follow the proofs.

The module is layered so Algorithm 2 can run on a *compiled* engine
(README.md, "Compiled tester engine"):

* **one kernel** — :func:`flatness_rows` holds the papers' threshold
  math once, row-wise over ``B`` gathered intervals: per-set hit and
  pair counts in, ``(light, z, threshold)`` out, with the median-of-r
  taken by exact selection; :func:`_verdicts` turns its rows into
  :class:`FlatnessResult` s.  Every caller below funnels through the
  pair, which is what makes them byte-identical;
* **per-query oracles** — :func:`test_flatness_l2` /
  :func:`test_flatness_l1` answer one interval from a raw
  :class:`~repro.samples.estimators.MultiSketch` (binary searches per
  set, one kernel row); :func:`flatness_oracle` is their validate-once
  closure form, which the tests' private references
  (:func:`repro.core.tester._reference_test`,
  :func:`repro.core.selection._reference_min_k`) search with;
* **compiled engine** — :class:`CompiledTesterSketches` holds one
  member's sets in the form :func:`tester_form` picks from ``(n, m)``:
  dense, per-set hit/pair prefixes over the full endpoint grid
  ``[0, n]`` in a C-contiguous ``(n + 1, r)`` gather layout; or sparse,
  the ``r m`` samples sorted once in per-set stripes plus a pair prefix,
  where one ``searchsorted`` places an interval's endpoints.  Either
  way one flatness query is one kernel row of exact integer
  differences, with verdicts memoised by
  ``(start, stop, metric, epsilon, scale)`` across binary searches,
  ``test_many`` grid points, and min-k sweeps;
* **fleet layer** — :class:`FleetTesterSketches` owns its members'
  compiles: it builds each layout straight from the member's raw
  sample sets (in :meth:`FleetTesterSketches.compile_member`, the one
  tester compile) into a slab of stacks with a leading fleet axis, or
  takes a restored one as it is, and
  :class:`FleetFlatnessOracle` answers one batch of probes (at most one
  per member) as ``B`` kernel rows gathered from the stacks, keeping
  each member's verdict memo and accounting byte-compatible with the
  member's own :meth:`CompiledTesterSketches.query` (README.md, "Fleet
  serving").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.params import _l1_min_hits, validate_epsilon
from repro.errors import InvalidParameterError
from repro.samples.collision import interval_prefixes, striped_sort
from repro.samples.estimators import MultiSketch, _ratio
from repro.utils.prefix import pairs_count

REASON_LIGHT = "light-weight"
REASON_COLLISION_OK = "collision-bound"
REASON_REJECTED = "rejected"

METRICS = ("l2", "l1")


@dataclass(frozen=True)
class FlatnessResult:
    """Verdict of one flatness test.

    Attributes
    ----------
    accepted:
        Whether the interval passed as (close to) flat.
    reason:
        ``"light-weight"`` (step-1 accept), ``"collision-bound"``
        (statistic under threshold) or ``"rejected"``.
    statistic:
        The median collision estimate ``z_I`` (``None`` on light accepts).
    threshold:
        The acceptance threshold compared against (``None`` on light
        accepts).
    """

    accepted: bool
    reason: str
    statistic: float | None
    threshold: float | None


FlatnessOracle = Callable[[int, int], FlatnessResult]


# ------------------------------------------------------------------ #
# validation (once per tester invocation, not per query)
# ------------------------------------------------------------------ #


def _check_interval(start: int, stop: int) -> int:
    if stop <= start:
        raise InvalidParameterError(
            f"flatness test needs a non-empty interval, got [{start}, {stop})"
        )
    return stop - start


def validate_flatness_scale(scale: float) -> None:
    """Reject out-of-range ``scale`` (the l1 light-threshold rescale)."""
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(f"scale must be in (0, 1], got {scale}")


def validate_metric(metric: str) -> None:
    """Reject unknown flatness metrics."""
    if metric not in METRICS:
        raise InvalidParameterError(
            f"metric must be one of {METRICS}, got {metric!r}"
        )


# ------------------------------------------------------------------ #
# the kernel: Algorithms 3 and 4, row-wise (one code path for every engine)
# ------------------------------------------------------------------ #


def _median_rows(values: np.ndarray) -> np.ndarray:
    """``np.median`` along the last axis, by exact selection.

    The middle order statistic for odd ``r``, the mean of the two middle
    ones for even ``r``: the bits ``np.median`` returns, at a fraction of
    its per-call cost (:func:`repro.core.greedy._collision_z` selects the
    same way).
    """
    half = values.shape[-1] // 2
    if values.shape[-1] % 2:
        return np.partition(values, half, axis=-1)[..., half]
    ordered = np.partition(values, (half - 1, half), axis=-1)
    return (ordered[..., half - 1] + ordered[..., half]) / 2


def flatness_rows(
    counts: np.ndarray,
    pairs: np.ndarray,
    lengths: np.ndarray,
    metric: str,
    epsilon: float,
    scale: float,
    set_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithms 3 (l2) and 4 (l1) on ``B`` intervals at once.

    ``counts`` and ``pairs`` are ``(B, r)`` int64 per-set hit counts
    ``|S^i_I|`` and collision pairs ``coll(S^i_I)``; ``lengths`` holds
    each ``|I|``.  Returns ``(light, z, threshold)``, one entry per row,
    and each row depends only on its own inputs:

    * ``testFlatness-l2``: light if any ``|S^i_I| / m < eps^2 / 2``;
      else accept iff ``z_I <= 1/|I| + max_i eps^2 / (2 p_hat_i(I))``
      with ``p_hat_i(I) = 2 |S^i_I| / m``;
    * ``testFlatness-l1``: light if any
      ``|S^i_I| < scale * 16^3 sqrt(|I|) / eps^4`` (``scale`` rescales the
      paper's absolute count with the sample sizes — see
      :func:`repro.core.tester.l1_effective_scale`; the bound is
      :func:`repro.core.params.flatness_l1_min_hits`'s, not re-validated
      here); else accept iff ``z_I <= (1/|I|) (1 + eps^2 / 4)``.

    ``z_I`` is the median over the sets of ``coll(S^i_I) / C(|S^i_I|, 2)``
    (0 for a set with fewer than two hits, see
    :func:`~repro.samples.estimators._ratio`).  Light rows skip it, as
    step 1 of both algorithms does; their ``z`` and ``threshold`` read 0.
    """
    # Any set under the light bound <=> the emptiest set is under it, and
    # max_i eps^2 / (2 p_hat_i) is attained there too: every operation
    # below is monotone in the hit count, rounding included.
    fewest = counts.min(axis=1)
    if metric == "l2":
        light = fewest / set_size < epsilon**2 / 2
    else:
        light = fewest < scale * _l1_min_hits(lengths, epsilon)
    z = np.zeros(light.shape)
    threshold = np.zeros(light.shape)
    num_light = np.count_nonzero(light)
    if num_light == light.size:
        return light, z, threshold
    rows = ~light if num_light else slice(None)
    counts, fewest, lengths = counts[rows], fewest[rows], lengths[rows]
    z[rows] = _median_rows(_ratio(pairs[rows], pairs_count(counts)))
    if metric == "l2":
        p_hat = 2.0 * fewest / set_size
        threshold[rows] = 1.0 / lengths + epsilon**2 / (2.0 * p_hat)
    else:
        threshold[rows] = (1.0 / lengths) * (1.0 + epsilon**2 / 4.0)
    return light, z, threshold


def _verdicts(
    light: np.ndarray, z: np.ndarray, threshold: np.ndarray
) -> list[FlatnessResult]:
    """:func:`flatness_rows`' rows as verdicts (statistics as Python floats)."""
    results = []
    for is_light, stat, bound in zip(light.tolist(), z.tolist(), threshold.tolist()):
        if is_light:
            results.append(FlatnessResult(True, REASON_LIGHT, None, None))
        elif stat <= bound:
            results.append(FlatnessResult(True, REASON_COLLISION_OK, stat, bound))
        else:
            results.append(FlatnessResult(False, REASON_REJECTED, stat, bound))
    return results


# ------------------------------------------------------------------ #
# per-query path over a raw MultiSketch (the tests' reference)
# ------------------------------------------------------------------ #


def _query_multi(
    multi: MultiSketch, start: int, stop: int, metric: str, epsilon: float, scale: float
) -> FlatnessResult:
    """One unvalidated flatness query answered by per-set binary searches."""
    length = _check_interval(start, stop)
    counts = multi.counts(start, stop)
    pairs = np.array([sketch.collisions(start, stop) for sketch in multi.sketches])
    stats = flatness_rows(
        counts[None], pairs[None], np.array([length]), metric, epsilon, scale, multi.set_size
    )
    return _verdicts(*stats)[0]


def test_flatness_l2(
    multi: MultiSketch, start: int, stop: int, epsilon: float
) -> FlatnessResult:
    """``testFlatness-l2`` (Algorithm 3) — one-shot, validating form."""
    _check_interval(start, stop)
    epsilon = validate_epsilon(epsilon)
    return _query_multi(multi, start, stop, "l2", epsilon, 1.0)


def test_flatness_l1(
    multi: MultiSketch,
    start: int,
    stop: int,
    epsilon: float,
    scale: float = 1.0,
) -> FlatnessResult:
    """``testFlatness-l1`` (Algorithm 4) — one-shot, validating form.

    ``scale`` rescales the step-1 hit threshold in proportion to the
    sample sizes: the paper's threshold is an absolute count calibrated
    to ``m = 2^13 sqrt(kn) / eps^5``, so running at ``scale * m`` samples
    requires ``scale *`` the threshold to test the same weight level.
    """
    _check_interval(start, stop)
    epsilon = validate_epsilon(epsilon)
    validate_flatness_scale(scale)
    return _query_multi(multi, start, stop, "l1", epsilon, scale)


def flatness_oracle(
    multi: MultiSketch, metric: str, epsilon: float, scale: float = 1.0
) -> FlatnessOracle:
    """A validate-once per-query oracle over a raw sketch.

    The oracle of Algorithm 2's per-query reference path: parameters
    are checked here, once per tester invocation, instead of inside each
    of the O(k log n) binary-search probes; each query then re-runs the
    per-set ``searchsorted`` counts and one fresh kernel row.
    """
    validate_metric(metric)
    epsilon = validate_epsilon(epsilon)
    validate_flatness_scale(scale)
    return lambda start, stop: _query_multi(multi, start, stop, metric, epsilon, scale)


# ------------------------------------------------------------------ #
# compiled engine
# ------------------------------------------------------------------ #

DENSE = "dense"
SPARSE = "sparse"

# Each form's two arrays, by the names a snapshot stores them under.
_LAYOUT_NAMES = {DENSE: ("count_cols", "pair_cols"), SPARSE: ("keys", "pair_prefix")}


def tester_form(n: int, set_size: int) -> str:
    """The layout a tester budget compiles into: ``"sparse"`` or ``"dense"``.

    Sets that are sparse in the domain, ``4 * set_size <= n + 1``, keep
    their ``r * m`` samples sorted in per-set stripes plus a prefix of
    colliding pairs (:func:`repro.samples.collision.striped_sort`):
    O(r m) memory, and an endpoint becomes ``r`` positions by one
    ``searchsorted``.  Denser sets keep per-set hit and pair prefixes on
    every endpoint ``0..n``: O(r n) memory, and an endpoint is its own
    row.  Both forms give the same exact integers, so the choice never
    shows in a verdict; the threshold is where a timed compile plus
    min-k sweep crosses over (README.md, "Compiled tester engine").
    """
    return SPARSE if 4 * set_size <= n + 1 else DENSE


def _striped_counts(
    keys: np.ndarray, pair_prefix: np.ndarray, stripes: np.ndarray, ends
) -> tuple[np.ndarray, np.ndarray]:
    """Per-set hit and pair counts between two rows of endpoints.

    ``ends`` is ``(2, B)``: the intervals' starts, then their stops, in
    the keys' value space; ``stripes`` holds each set's offset in it.
    One ``searchsorted`` turns the ``2 B r`` points into positions, whose
    differences are hit counts and whose ``pair_prefix`` entries differ by
    the collision pairs.  Returns two ``(B, r)`` int64 arrays.
    """
    at = keys.searchsorted(np.add.outer(ends, stripes))
    pairs = pair_prefix[at]
    return at[1] - at[0], pairs[1] - pairs[0]


class CompiledTesterSketches:
    """``r`` sample sets compiled for flatness queries of O(r) rows each.

    Mirrors :class:`repro.core.greedy.CompiledGreedySketches`: the
    per-draw work happens once at compile time
    (:meth:`FleetTesterSketches.compile_member`), after which any
    interval's per-set hit and pair counts come out as exact integer
    differences, one row of :func:`flatness_rows`.  :func:`tester_form`
    picks the layout from ``(n, m)`` alone, and the two forms differ only
    in how an endpoint becomes a row:

    * **dense** — per-set hit/pair prefixes on the full endpoint grid
      ``[0, n]`` in C-contiguous ``(n + 1, r)`` columns; an endpoint is
      its own row, so an interval is two contiguous length-``r`` rows;
    * **sparse** — the ``r m`` samples sorted once with set ``s``'s in
      the stripe ``s n + v``, plus the pair prefix by position; an
      endpoint ``x`` becomes the positions of ``s n + x`` through one
      ``searchsorted``, whose differences are the hit counts and whose
      pair-prefix entries differ by the collision pairs.

    On top of the gathers sits a verdict memo keyed by
    ``(start, stop, metric, epsilon, scale)``.  Algorithm 2's binary
    search, the points of a ``test_many`` grid, and min-k sweeps all
    re-probe overlapping intervals; the memo answers repeats in O(1)
    (``memo_hits`` / ``memo_misses`` account for it).  Verdicts are
    frozen dataclasses, so sharing them is safe, and the query *log*
    Algorithm 2 returns is unaffected — every probe is logged whether or
    not its verdict came from the memo.

    Memory is O(r min(m, n)): ``2 (n + 1) r`` integers dense, ``2 r m + 1``
    sparse.  :meth:`state` and :meth:`from_state` are the only way a
    snapshot reads or writes the layout.

    ``arrays`` maps the form's two names (``count_cols`` and
    ``pair_cols`` dense, ``keys`` and ``pair_prefix`` sparse) to its
    arrays, adopted without a copy when already int64 and contiguous;
    ``offset`` is how far sparse keys sit above their values (a member
    viewing its fleet's stack row).
    """

    def __init__(
        self,
        n: int,
        set_size: int,
        arrays: "dict[str, np.ndarray]",
        *,
        offset: int = 0,
    ) -> None:
        self._n = int(n)
        self._set_size = int(set_size)
        self._form = tester_form(self._n, self._set_size)
        first, second = (
            np.ascontiguousarray(arrays[name], dtype=np.int64)
            for name in _LAYOUT_NAMES[self._form]
        )
        if self._form == DENSE:
            num_sets = first.shape[-1] if first.ndim else 0
            valid = first.shape == second.shape == (self._n + 1, num_sets)
            self._stripes = None
        else:
            num_sets = first.size // max(self._set_size, 1)
            valid = first.shape == (num_sets * self._set_size,) and (
                second.shape == (first.size + 1,)
            )
            # A fleet-compiled member views its stack row, whose keys sit
            # ``offset`` higher; folding it into the stripes keeps queries
            # one searchsorted.
            self._stripes = int(offset) + np.arange(num_sets, dtype=np.int64) * self._n
        if not valid or num_sets < 1:
            raise InvalidParameterError(
                f"a {self._form} tester layout over n={self._n}, m={self._set_size} "
                f"needs {' and '.join(_LAYOUT_NAMES[self._form])} of matching shapes"
            )
        self._layout = (first, second)
        self._num_sets = num_sets
        self._memo: dict[tuple, FlatnessResult] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def n(self) -> int:
        """Domain size (queries take endpoints ``0..n``)."""
        return self._n

    @property
    def num_sets(self) -> int:
        """The replication factor ``r``."""
        return self._num_sets

    @property
    def set_size(self) -> int:
        """``m``, the (common) size of each sample set."""
        return self._set_size

    @property
    def form(self) -> str:
        """The layout, ``"dense"`` or ``"sparse"`` (see :func:`tester_form`)."""
        return self._form

    @property
    def memo_size(self) -> int:
        """Number of distinct memoised verdicts."""
        return len(self._memo)

    def _offset(self) -> int:
        """How far this member's sparse keys sit above their own values."""
        return 0 if self._stripes is None else int(self._stripes[0])

    def interval_counts(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-set hit counts ``|S^i_I|`` and collision pairs ``coll(S^i_I)``.

        One row per interval ``[starts[b], stops[b])`` with
        ``0 <= start <= stop <= n``: two ``(B, r)`` int64 arrays.
        """
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        stops = np.asarray(stops, dtype=np.int64).reshape(-1)
        if starts.shape != stops.shape or np.any(
            (starts < 0) | (stops < starts) | (stops > self._n)
        ):
            raise InvalidParameterError(
                f"intervals must satisfy 0 <= start <= stop <= {self._n}"
            )
        if self._stripes is None:
            count_cols, pair_cols = self._layout
            return (
                count_cols[stops] - count_cols[starts],
                pair_cols[stops] - pair_cols[starts],
            )
        return _striped_counts(*self._layout, self._stripes, (starts, stops))

    def query(
        self, start: int, stop: int, metric: str, epsilon: float, scale: float = 1.0
    ) -> FlatnessResult:
        """One memoised flatness verdict (parameters assumed validated)."""
        key = (start, stop, metric, epsilon, scale)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        length = _check_interval(start, stop)
        if self._stripes is None:
            count_cols, pair_cols = self._layout
            after, before = slice(stop, stop + 1), slice(start, start + 1)
            counts = count_cols[after] - count_cols[before]
            pairs = pair_cols[after] - pair_cols[before]
        else:
            counts, pairs = _striped_counts(
                *self._layout, self._stripes, ((start,), (stop,))
            )
        stats = flatness_rows(
            counts,
            pairs,
            np.array([length]),
            metric,
            epsilon,
            scale,
            self._set_size,
        )
        (result,) = _verdicts(*stats)
        self._memo[key] = result
        return result

    def oracle(
        self, metric: str, epsilon: float, scale: float = 1.0
    ) -> FlatnessOracle:
        """A validate-once flatness oracle over the compiled sketches.

        The returned closure is what Algorithm 2's partition search (and
        the min-k sweep) consume; all oracles from one compiled object
        share its verdict memo.
        """
        validate_metric(metric)
        epsilon = validate_epsilon(epsilon)
        validate_flatness_scale(scale)
        return lambda start, stop: self.query(start, stop, metric, epsilon, scale)

    # -------------------------------------------------------------- #
    # persistence: the only door to the layout
    # -------------------------------------------------------------- #

    def state(self) -> "tuple[dict, dict[str, np.ndarray]]":
        """The compile as a JSON-safe ``meta`` plus named arrays.

        ``meta`` records the form, the verdict memo (one row per entry,
        floats as exact Python floats) and its hit/miss counts; the
        arrays are the form's two, named as the constructor takes them,
        sparse keys without any fleet offset.  :meth:`from_state`
        inverts it.
        """
        memo = [
            [
                int(start),
                int(stop),
                str(metric),
                float(epsilon),
                float(scale),
                bool(result.accepted),
                str(result.reason),
                None if result.statistic is None else float(result.statistic),
                None if result.threshold is None else float(result.threshold),
            ]
            for (start, stop, metric, epsilon, scale), result in self._memo.items()
        ]
        meta = {
            "form": self._form,
            "memo": memo,
            "memo_hits": int(self.memo_hits),
            "memo_misses": int(self.memo_misses),
        }
        first, second = self._layout
        offset = self._offset()
        if offset:
            first = first - offset
        return meta, dict(zip(_LAYOUT_NAMES[self._form], (first, second)))

    @classmethod
    def from_state(
        cls, n: int, set_size: int, meta: dict, arrays
    ) -> "CompiledTesterSketches":
        """Rebuild a compile from :meth:`state`'s ``meta`` and arrays.

        ``arrays`` maps an array name to its array (a snapshot's slab
        accessor); the arrays are adopted without a copy.  ``meta``'s
        form must be the one :func:`tester_form` picks for ``(n,
        set_size)``; the caller checks that first (a snapshot from
        another layout rule restores cold).
        """
        form = tester_form(n, set_size)
        if meta.get("form") != form:
            raise InvalidParameterError(
                f"a {meta.get('form')!r} tester state cannot restore as {form!r}"
            )
        compiled = cls(n, set_size, {name: arrays(name) for name in _LAYOUT_NAMES[form]})
        for row in meta["memo"]:
            start, stop, metric, epsilon, scale = row[:5]
            accepted, reason, statistic, threshold = row[5:]
            key = (int(start), int(stop), str(metric), float(epsilon), float(scale))
            compiled._memo[key] = FlatnessResult(
                bool(accepted),
                str(reason),
                None if statistic is None else float(statistic),
                None if threshold is None else float(threshold),
            )
        compiled.memo_hits = int(meta["memo_hits"])
        compiled.memo_misses = int(meta["memo_misses"])
        return compiled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledTesterSketches({self._form}, n={self.n}, r={self.num_sets}, "
            f"m={self._set_size}, memo={self.memo_size})"
        )


class FleetFlatnessOracle:
    """A validate-once batched flatness oracle over a fleet's stacks.

    The lockstep partition driver (:func:`repro.core.tester.fleet_flat_partition`)
    separates memo traffic from fresh statistics: it reads each member's
    verdict memo directly (:meth:`member_memo`, reporting its hits
    through :meth:`flush_hits`), and :meth:`resolve` computes one batch
    of misses — at most one per member — as rows of the one kernel,
    :func:`flatness_rows`, gathered from the fleet's stacks.
    Both sides maintain the per-member memo and its hit/miss accounting
    exactly as :meth:`CompiledTesterSketches.query` would, so a fleet run
    leaves every member's compiled sketches in the same state a looped
    single-session run would have.
    """

    __slots__ = ("_fleet", "_metric", "_epsilon", "_scale")

    def __init__(
        self, fleet: "FleetTesterSketches", metric: str, epsilon: float, scale: float
    ) -> None:
        self._fleet = fleet
        self._metric = metric
        self._epsilon = epsilon
        self._scale = scale

    @property
    def suffix(self) -> tuple:
        """The ``(metric, epsilon, scale)`` tail of every memo key."""
        return (self._metric, self._epsilon, self._scale)

    def member_oracle(self, member: int) -> FlatnessOracle:
        """Member ``member``'s own single-probe oracle.

        A lone member has nothing to batch, so its search asks
        :meth:`CompiledTesterSketches.query` directly: same verdicts,
        same memo, same hit/miss accounting as a lockstep round.
        """
        return self._fleet.member(member).oracle(*self.suffix)

    def member_memo(self, member: int) -> dict:
        """Member ``member``'s verdict memo, for direct-read fast paths.

        A caller that reads the memo directly (the lockstep driver's
        fast-forward loop) must report its hit counts through
        :meth:`flush_hits` so the per-member accounting stays identical
        to the :meth:`CompiledTesterSketches.query` path.
        """
        return self._fleet.member(member)._memo

    def flush_hits(self, members: "list[int]", hits: "list[int]") -> None:
        """Credit locally-accumulated memo hits to their members."""
        for member, count in zip(members, hits):
            if count:
                self._fleet.member(member).memo_hits += count

    def resolve(
        self, members: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> list[FlatnessResult]:
        """Fresh verdicts for a batch of memo misses (one per member).

        Gathers every probed member's per-set hit/pair rows from the
        stacks (:meth:`FleetTesterSketches.interval_counts`), runs them
        through :func:`flatness_rows` as one batch, then memoises each
        verdict on its member with a miss tick.
        """
        members = np.asarray(members, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if np.any(stops <= starts):
            raise InvalidParameterError(
                "flatness test needs non-empty intervals in every probe"
            )
        stats = flatness_rows(
            *self._fleet.interval_counts(members, starts, stops),
            stops - starts,
            self._metric,
            self._epsilon,
            self._scale,
            self._fleet.set_size,
        )
        results = _verdicts(*stats)
        suffix = self.suffix
        fleet_members = self._fleet._members
        for member, start, stop, result in zip(
            members.tolist(), starts.tolist(), stops.tolist(), results
        ):
            sketches = fleet_members[member]
            sketches.memo_misses += 1
            sketches._memo[(start, stop) + suffix] = result
        return results


class FleetTesterSketches:
    """F members' compiled tester sketches stacked on a leading fleet axis.

    The fleet holds two stacks in its members' form (:func:`tester_form`),
    so one batched flatness step gathers any subset of members' rows in a
    few vectorised calls (see :class:`FleetFlatnessOracle`):

    * **dense** — two ``(F, n + 1, r)`` hit/pair prefix stacks, one
      member's :class:`CompiledTesterSketches` columns per slab, gathered
      by fancy index;
    * **sparse** — an ``(F, r m + 1)`` key stack and an ``(F, r m + 1)``
      pair-prefix stack.  Member ``f``'s keys sit ``f (r n + 1)`` higher
      and close with one sentinel, so the flattened key stack is sorted
      and one ``searchsorted`` over it places a whole batch's endpoints.

    It is the one owner of its members' compiles.  Members compiled here
    wrap zero-copy views of their slab; a restored member
    (:meth:`restore_member`) keeps its own arrays until a search over
    several members needs it stacked (:meth:`stack`).  Every member keeps
    its own verdict memo — and its hit/miss accounting — so a fleet run
    stays byte-compatible with a looped single-session run.  Members
    compile independently (:meth:`compile_member`), which is what gives
    the fleet facade its lazy per-member invalidation: refreshing one
    member's stream recompiles one slab, not the fleet.

    Memory is O(F r min(m, n)): ``F`` per-member layouts, stacked.
    """

    def __init__(
        self,
        n: int,
        num_sets: int,
        set_size: int,
        fleet_size: int,
    ) -> None:
        if n < 1 or num_sets < 1 or set_size < 1 or fleet_size < 1:
            raise InvalidParameterError(
                "FleetTesterSketches needs n, num_sets, set_size, fleet_size >= 1"
            )
        self._n = int(n)
        self._num_sets = int(num_sets)
        self._set_size = int(set_size)
        self._form = tester_form(self._n, self._set_size)
        # Sparse keys: each member's stripes, and the gap between members.
        self._stripes = np.arange(self._num_sets, dtype=np.int64) * self._n
        self._span = self._num_sets * self._n + 1
        # Allocated by the first member's compile, after its layout is
        # built (see _slabs).
        self._stacks: tuple[np.ndarray, np.ndarray] | None = None
        self._members: list[CompiledTesterSketches | None] = [None] * fleet_size
        # Restored members whose arrays are not in the stacks yet.
        self._unstacked: set[int] = set()

    @property
    def n(self) -> int:
        """Domain size (queries take endpoints ``0..n``)."""
        return self._n

    @property
    def num_sets(self) -> int:
        """The replication factor ``r``."""
        return self._num_sets

    @property
    def set_size(self) -> int:
        """``m``, the (common) size of each sample set."""
        return self._set_size

    @property
    def form(self) -> str:
        """The members' layout, ``"dense"`` or ``"sparse"``."""
        return self._form

    @property
    def fleet_size(self) -> int:
        """Number of member slots ``F``."""
        return len(self._members)

    @property
    def nbytes(self) -> int:
        """Bytes the stacks hold (0 until a member is compiled or stacked)."""
        return 0 if self._stacks is None else sum(a.nbytes for a in self._stacks)

    def _slabs(self) -> tuple[np.ndarray, np.ndarray]:
        """The two stacks, allocated on first use: dense ``(F, n + 1, r)``
        hit and pair prefixes, sparse ``(F, r m + 1)`` offset keys and
        pair prefixes.

        A cold compile builds its layout before the stacks exist, so its
        large temporaries reuse freed memory instead of growing the heap
        past two live stacks.  Allocating the stacks up front made a
        one-member compile about 15 % slower on a 2-core VM (n = 4,096,
        15 sets of 60,000).  A sparse key stack starts with every row at
        its member's offset, so the flattened stack is sorted before any
        member is planted.
        """
        if self._stacks is None:
            fleet_size = len(self._members)
            if self._form == DENSE:
                shape = (fleet_size, self._n + 1, self._num_sets)
                self._stacks = (
                    np.zeros(shape, dtype=np.int64),
                    np.zeros(shape, dtype=np.int64),
                )
            else:
                width = self._num_sets * self._set_size + 1
                keys = np.repeat(
                    np.arange(fleet_size, dtype=np.int64) * self._span, width
                ).reshape(fleet_size, width)
                keys[:, -1] += self._span - 1
                self._stacks = (keys, np.zeros((fleet_size, width), dtype=np.int64))
        return self._stacks

    def interval_counts(
        self, members: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-set hit and pair counts of ``members[b]``'s ``[starts[b], stops[b])``.

        Two ``(B, r)`` int64 arrays read from the stacks, equal to each
        member's own :meth:`CompiledTesterSketches.interval_counts`.  The
        batch path of :meth:`FleetFlatnessOracle.resolve`: int64 arrays
        in, members planted, endpoints in ``[0, n]``, no re-validation.
        """
        first, second = self._slabs()
        if self._form == DENSE:
            return (
                first[members, stops] - first[members, starts],
                second[members, stops] - second[members, starts],
            )
        return _striped_counts(
            first.reshape(-1),
            second.reshape(-1),
            self._stripes,
            np.array((starts, stops)) + members * self._span,
        )

    def member(self, index: int) -> CompiledTesterSketches:
        """Member ``index``'s compiled sketches (must be compiled)."""
        sketches = self._members[index]
        if sketches is None:
            raise InvalidParameterError(f"fleet member {index} is not compiled")
        return sketches

    def _detach_member(self, index: int) -> None:
        """Give an outgoing member its own copy of the slab data.

        Members compiled here wrap zero-copy views of their slab, so
        overwriting the slab would otherwise mutate a previously issued
        :class:`CompiledTesterSketches` in place — leaving any held
        reference with its old verdict memo over new numbers.  Copying
        on replacement (a rare, invalidation-driven path) keeps every
        outstanding object internally consistent.
        """
        outgoing = self._members[index]
        if (
            outgoing is not None
            and self._stacks is not None
            and np.shares_memory(outgoing._layout[1], self._stacks[1])
        ):
            outgoing._layout = tuple(array.copy() for array in outgoing._layout)

    def _plant(
        self, index: int, layout: "tuple[np.ndarray, np.ndarray]", offset: int = 0
    ) -> "dict[str, np.ndarray]":
        """Copy one member's two arrays into its slab; the slab's views.

        ``offset`` is how far the sparse keys in ``layout`` already sit
        above their values; they land ``index (r n + 1)`` above them.
        """
        first, second = self._slabs()
        if self._form == DENSE:
            first[index], second[index] = layout
            return {"count_cols": first[index], "pair_cols": second[index]}
        keys, pair_prefix = layout
        np.add(keys, index * self._span - offset, out=first[index, :-1])
        second[index] = pair_prefix
        return {"keys": first[index, :-1], "pair_prefix": second[index]}

    def compile_member(
        self, index: int, sample_sets: "list[np.ndarray]"
    ) -> CompiledTesterSketches:
        """(Re)compile one member's slab from its raw sample sets.

        The one tester compile.  Dense prefixes come from
        :func:`repro.samples.collision.interval_prefixes`, the function
        every prefix compile shares; sparse keys from
        :func:`repro.samples.collision.striped_sort`, the first half of
        its sorting pass.  The returned member wraps a zero-copy view of
        the slab and starts with a fresh (empty) verdict memo.
        """
        self._detach_member(index)
        if len(sample_sets) != self._num_sets or any(
            s.shape[0] != self._set_size for s in sample_sets
        ):
            raise InvalidParameterError(
                "sample sets do not match the fleet's (num_sets, set_size) layout"
            )
        if self._form == DENSE:
            count_rows, pair_rows = interval_prefixes(sample_sets, self._n)
            layout = (count_rows.T, pair_rows.T)
        else:
            layout = striped_sort(sample_sets, self._n)
        member = CompiledTesterSketches(
            self._n,
            self._set_size,
            self._plant(index, layout),
            offset=index * self._span,
        )
        self._members[index] = member
        self._unstacked.discard(index)
        return member

    def restore_member(self, index: int, sketches: CompiledTesterSketches) -> None:
        """Make a restored compile of this ``(n, r, m)`` member ``index``.

        The *object* — its arrays (a snapshot's read-only mapping),
        verdict memo and accounting — becomes the member, uncopied, so a
        compile memoised before the snapshot loses nothing.  A lone
        member's search reads only the object, so nothing is copied
        into the stacks until a search over several members lists it
        (:meth:`stack`).
        """
        self._detach_member(index)
        self._members[index] = sketches
        self._unstacked.add(index)

    def stack(self, members: "list[int]") -> None:
        """Copy the restored members among ``members`` into the stacks.

        A search over two or more members reads the stacks
        (:meth:`interval_counts`), so it stacks them first; each restored
        member is copied once, and its object stays the member.
        """
        for index in self._unstacked.intersection(members):
            member = self._members[index]
            self._plant(index, member._layout, member._offset())
            self._unstacked.discard(index)

    def oracle(
        self, metric: str, epsilon: float, scale: float = 1.0
    ) -> FleetFlatnessOracle:
        """A validate-once batched oracle over the compiled members."""
        validate_metric(metric)
        epsilon = validate_epsilon(epsilon)
        validate_flatness_scale(scale)
        return FleetFlatnessOracle(self, metric, epsilon, scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        compiled = sum(1 for m in self._members if m is not None)
        return (
            f"FleetTesterSketches({self._form}, F={self.fleet_size} "
            f"({compiled} compiled), n={self.n}, r={self.num_sets}, "
            f"m={self._set_size})"
        )
