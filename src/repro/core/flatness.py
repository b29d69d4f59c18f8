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
  member's per-set hit/pair prefixes over the full endpoint grid
  ``[0, n]`` in a C-contiguous ``(n + 1, r)`` gather layout, so one
  flatness query is one kernel row sliced from two prefix rows, with
  verdicts memoised by ``(start, stop, metric, epsilon, scale)`` across
  binary searches, ``test_many`` grid points, and min-k sweeps;
* **fleet layer** — :class:`FleetTesterSketches` compiles every
  member's layout straight from its raw sample sets (through
  :func:`repro.samples.collision.interval_prefixes`, in
  :meth:`FleetTesterSketches.compile_member`, the one tester compile)
  into a slab of stacks with a leading fleet axis, and
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
from repro.samples.collision import interval_prefixes
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


class CompiledTesterSketches:
    """``r`` sample sets compiled for O(r) flatness queries.

    Mirrors :class:`repro.core.greedy.CompiledGreedySketches`: the
    expensive per-draw work — prefix evaluation on the full endpoint
    grid ``[0, n]`` — happens once at compile time
    (:meth:`FleetTesterSketches.compile_member`), after which any
    interval's per-set hit and pair counts are differences of contiguous
    length-``r`` rows (the ``(n + 1, r)`` C-contiguous layout below),
    sliced as one row of :func:`flatness_rows`.

    On top of the gathers sits a verdict memo keyed by
    ``(start, stop, metric, epsilon, scale)``.  Algorithm 2's binary
    search, the points of a ``test_many`` grid, and min-k sweeps all
    re-probe overlapping intervals; the memo answers repeats in O(1)
    (``memo_hits`` / ``memo_misses`` account for it).  Verdicts are
    frozen dataclasses, so sharing them is safe, and the query *log*
    Algorithm 2 returns is unaffected — every probe is logged whether or
    not its verdict came from the memo.

    Memory is O(n r), and no more than the raw sketch's: at the largest
    domain the benchmarks use (n = 16,384, r = 21, m = 120,000) the
    layout is 5.5 MB against the :class:`MultiSketch`'s 7.6 MB.
    """

    def __init__(
        self,
        count_prefix_cols: np.ndarray,
        pair_prefix_cols: np.ndarray,
        set_size: int,
    ) -> None:
        if (
            count_prefix_cols.shape != pair_prefix_cols.shape
            or count_prefix_cols.ndim != 2
        ):
            raise InvalidParameterError(
                "count/pair prefix layouts must be two equal-shape matrices"
            )
        self._count_cols = np.ascontiguousarray(count_prefix_cols, dtype=np.int64)
        self._pair_cols = np.ascontiguousarray(pair_prefix_cols, dtype=np.int64)
        self._set_size = int(set_size)
        self._memo: dict[tuple, FlatnessResult] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def n(self) -> int:
        """Domain size (the grid holds every endpoint ``0..n``)."""
        return self._count_cols.shape[0] - 1

    @property
    def num_sets(self) -> int:
        """The replication factor ``r``."""
        return self._count_cols.shape[1]

    @property
    def set_size(self) -> int:
        """``m``, the (common) size of each sample set."""
        return self._set_size

    @property
    def memo_size(self) -> int:
        """Number of distinct memoised verdicts."""
        return len(self._memo)

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
        after, before = slice(stop, stop + 1), slice(start, start + 1)
        stats = flatness_rows(
            self._count_cols[after] - self._count_cols[before],
            self._pair_cols[after] - self._pair_cols[before],
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledTesterSketches(n={self.n}, r={self.num_sets}, "
            f"m={self._set_size}, memo={self.memo_size})"
        )


class FleetFlatnessOracle:
    """A validate-once batched flatness oracle over a fleet's stacks.

    The lockstep partition driver (:func:`repro.core.tester.fleet_flat_partition`)
    separates memo traffic from fresh statistics: it reads each member's
    verdict memo directly (:meth:`member_memo`, reporting its hits
    through :meth:`flush_hits`), and :meth:`resolve` computes one batch
    of misses — at most one per member — as rows of the one kernel,
    :func:`flatness_rows`, gathered from the ``(F, n + 1, r)`` stacks.
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

        Gathers every probed member's per-set hit/pair rows with fancy
        indexes on the ``(F, n + 1, r)`` stacks, runs them through
        :func:`flatness_rows` as one batch, then memoises each verdict on
        its member with a miss tick.
        """
        members = np.asarray(members, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if np.any(stops <= starts):
            raise InvalidParameterError(
                "flatness test needs non-empty intervals in every probe"
            )
        count_stack, pair_stack = self._fleet.stacks
        stats = flatness_rows(
            count_stack[members, stops] - count_stack[members, starts],
            pair_stack[members, stops] - pair_stack[members, starts],
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

    The per-member layout is exactly :class:`CompiledTesterSketches`'s
    C-contiguous ``(n + 1, r)`` gather matrix; the fleet stacks them into
    two ``(F, n + 1, r)`` arrays so one batched flatness step can gather
    any subset of members' rows with a single fancy index (see
    :class:`FleetFlatnessOracle`).  Every member keeps its own
    :class:`CompiledTesterSketches` wrapping a zero-copy view of its
    slab, so the verdict memo — and its hit/miss accounting — stays per
    member, byte-compatible with a looped single-session run.

    Members compile independently (:meth:`compile_member`) and can be
    dropped independently (:meth:`drop_member`), which is what gives the
    fleet facade its lazy per-member invalidation: refreshing one
    member's stream recompiles one slab, not the fleet.

    Memory is O(F n r): ``F`` per-member layouts, stacked.
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
        self._shape = (fleet_size, n + 1, num_sets)
        # Allocated by the first member's compile, after its prefixes are
        # built (see _slabs).
        self._count_stack: np.ndarray | None = None
        self._pair_stack: np.ndarray | None = None
        self._set_size = int(set_size)
        self._members: list[CompiledTesterSketches | None] = [None] * fleet_size

    @property
    def n(self) -> int:
        """Domain size (the stacks hold every endpoint ``0..n``)."""
        return self._shape[1] - 1

    @property
    def num_sets(self) -> int:
        """The replication factor ``r``."""
        return self._shape[2]

    @property
    def set_size(self) -> int:
        """``m``, the (common) size of each sample set."""
        return self._set_size

    @property
    def fleet_size(self) -> int:
        """Number of member slots ``F``."""
        return len(self._members)

    @property
    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(F, n + 1, r)`` count/pair prefix stacks."""
        return self._slabs()

    def _slabs(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacks, allocated on first use.

        A cold compile builds its prefixes before the stacks exist, so
        its large temporaries reuse freed memory instead of growing the
        heap past two live stacks.  Allocating the stacks up front made a
        one-member compile about 15 % slower on a 2-core VM (n = 4,096,
        15 sets of 60,000).
        """
        if self._count_stack is None:
            self._count_stack = np.zeros(self._shape, dtype=np.int64)
            self._pair_stack = np.zeros(self._shape, dtype=np.int64)
        return self._count_stack, self._pair_stack

    def member(self, index: int) -> CompiledTesterSketches:
        """Member ``index``'s compiled sketches (must be compiled)."""
        sketches = self._members[index]
        if sketches is None:
            raise InvalidParameterError(f"fleet member {index} is not compiled")
        return sketches

    def member_or_none(self, index: int) -> CompiledTesterSketches | None:
        """Member ``index``'s compiled sketches, or ``None``."""
        return self._members[index]

    def _detach_member(self, index: int) -> None:
        """Give an outgoing member its own copy of the slab data.

        Members wrap zero-copy views of their slab, so overwriting the
        slab would otherwise mutate a previously issued
        :class:`CompiledTesterSketches` in place — leaving any held
        reference with its old verdict memo over new numbers.  Copying
        on replacement (a rare, invalidation-driven path) keeps every
        outstanding object internally consistent.
        """
        outgoing = self._members[index]
        if outgoing is not None and np.shares_memory(
            outgoing._count_cols, self._count_stack
        ):
            outgoing._count_cols = outgoing._count_cols.copy()
            outgoing._pair_cols = outgoing._pair_cols.copy()

    def compile_member(
        self, index: int, sample_sets: "list[np.ndarray]"
    ) -> CompiledTesterSketches:
        """(Re)compile one member's slab from its raw sample sets.

        The one tester compile: the prefixes come from
        :func:`repro.samples.collision.interval_prefixes`, the function
        every compile shares.  The returned member wraps a zero-copy
        view of the slab and starts with a fresh (empty) verdict memo.
        """
        self._detach_member(index)
        if len(sample_sets) != self.num_sets or any(
            s.shape[0] != self._set_size for s in sample_sets
        ):
            raise InvalidParameterError(
                "sample sets do not match the fleet's (num_sets, set_size) layout"
            )
        count_rows, pair_rows = interval_prefixes(sample_sets, self.n)
        count_stack, pair_stack = self._slabs()
        count_stack[index] = count_rows.T
        pair_stack[index] = pair_rows.T
        member = CompiledTesterSketches(
            count_stack[index], pair_stack[index], self._set_size
        )
        self._members[index] = member
        return member

    def adopt_member(self, index: int, sketches: CompiledTesterSketches) -> None:
        """Adopt an externally compiled member into the stacks.

        Copies the member's gather layout into its slab and keeps the
        *object* — verdict memo, accounting and all — as the fleet
        member, so a compile restored from a snapshot (and partially
        memoised before it was taken) loses nothing.
        """
        if (
            sketches.n != self.n
            or sketches.num_sets != self.num_sets
            or sketches.set_size != self._set_size
        ):
            raise InvalidParameterError(
                "compiled sketches do not match the fleet's (n, r, m) layout"
            )
        if self._members[index] is not sketches:
            self._detach_member(index)
            count_stack, pair_stack = self._slabs()
            count_stack[index] = sketches._count_cols
            pair_stack[index] = sketches._pair_cols
            self._members[index] = sketches

    @classmethod
    def holding(
        cls, index: int, sketches: CompiledTesterSketches, fleet_size: int
    ) -> "FleetTesterSketches":
        """A stackless fleet whose only member is ``sketches`` at ``index``.

        For a one-member search, which reads the member's own object
        (:meth:`FleetFlatnessOracle.member_oracle`) and never the
        stacks: the view allocates none and copies nothing.
        """
        view = cls(sketches.n, sketches.num_sets, sketches.set_size, fleet_size)
        view._members[index] = sketches
        return view

    def drop_member(self, index: int) -> None:
        """Forget one member's compiled sketches (its source changed).

        The outgoing member is detached first, so a reference held
        elsewhere keeps consistent data when the slab is recompiled.
        """
        self._detach_member(index)
        self._members[index] = None

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
            f"FleetTesterSketches(F={self.fleet_size} ({compiled} compiled), "
            f"n={self.n}, r={self.num_sets}, m={self._set_size})"
        )
