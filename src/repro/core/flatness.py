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

* **pure verdict kernels** — :func:`l2_flatness_verdict` /
  :func:`l1_flatness_verdict` hold the papers' threshold math once;
  every engine funnels through them, which is what makes the engines
  byte-identical;
* **per-query oracles** — :func:`test_flatness_l2` /
  :func:`test_flatness_l1` answer one interval from a raw
  :class:`~repro.samples.estimators.MultiSketch` (binary searches per
  query); :func:`flatness_oracle` is their validate-once closure form
  (the ``engine="full"`` reference path);
* **compiled engine** — :func:`compile_tester_sketches` builds a
  :class:`CompiledTesterSketches`: per-set hit/pair prefixes over the
  full endpoint grid ``[0, n]`` in a C-contiguous ``(n + 1, r)`` gather
  layout, so one flatness query is two row gathers, an in-place
  length-``r`` ratio, and a median — no sorting, searching, or
  allocation — with verdicts memoised by
  ``(start, stop, metric, epsilon, scale)`` across binary searches,
  ``test_many`` grid points, and min-k sweeps;
* **fleet layer** — :class:`FleetTesterSketches` stacks many members'
  compiled layouts on a leading fleet axis and
  :class:`FleetFlatnessOracle` answers one batch of probes (at most one
  per member) with fleet-axis gathers and row-wise medians, keeping
  each member's verdict memo and accounting byte-compatible with the
  single-member engine (README.md, "Fleet serving").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.params import flatness_l1_min_hits
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch, _ratio

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


def validate_flatness_epsilon(epsilon: float) -> None:
    """Reject out-of-range ``epsilon`` (shared by every flatness entry)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")


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
# pure verdict kernels (one code path for every engine)
# ------------------------------------------------------------------ #


def l2_flatness_verdict(
    counts: np.ndarray,
    set_size: int,
    length: int,
    epsilon: float,
    median_z: Callable[[], float],
) -> FlatnessResult:
    """``testFlatness-l2`` (Algorithm 3) decision from per-set hit counts.

    1. ``p_hat_i(I) = 2 |S^i_I| / m``;
    2. accept if any ``|S^i_I| / m < eps^2 / 2`` (light interval);
    3. ``z_I`` = median of per-set conditional collision estimates
       (``median_z`` is called lazily — light intervals never pay for it);
    4. accept iff ``z_I <= 1/|I| + max_i eps^2 / (2 p_hat_i(I))``.

    ``counts`` may be int64 or float64: ``np.divide`` promotes both to
    the same float64 values, so the per-query and compiled engines are
    bit-identical through this single kernel.
    """
    if np.any(counts / set_size < epsilon**2 / 2):
        return FlatnessResult(True, REASON_LIGHT, None, None)
    p_hat = 2.0 * counts / set_size
    z = float(median_z())
    threshold = 1.0 / length + float(np.max(epsilon**2 / (2.0 * p_hat)))
    if z <= threshold:
        return FlatnessResult(True, REASON_COLLISION_OK, z, threshold)
    return FlatnessResult(False, REASON_REJECTED, z, threshold)


def l1_flatness_verdict(
    counts: np.ndarray,
    length: int,
    epsilon: float,
    scale: float,
    median_z: Callable[[], float],
) -> FlatnessResult:
    """``testFlatness-l1`` (Algorithm 4) decision from per-set hit counts.

    1. accept if any ``|S^i_I| < scale * 16^3 sqrt(|I|) / eps^4`` (light;
       ``scale`` rescales the paper's absolute threshold in proportion to
       the sample sizes — see
       :func:`repro.core.tester.l1_effective_scale`);
    2. ``z_I`` = median of per-set conditional collision estimates;
    3. accept iff ``z_I <= (1/|I|) (1 + eps^2 / 4)``.
    """
    min_hits = scale * flatness_l1_min_hits(length, epsilon)
    if np.any(counts < min_hits):
        return FlatnessResult(True, REASON_LIGHT, None, None)
    z = float(median_z())
    threshold = (1.0 / length) * (1.0 + epsilon**2 / 4.0)
    if z <= threshold:
        return FlatnessResult(True, REASON_COLLISION_OK, z, threshold)
    return FlatnessResult(False, REASON_REJECTED, z, threshold)


# ------------------------------------------------------------------ #
# per-query path over a raw MultiSketch (engine="full")
# ------------------------------------------------------------------ #


def _query_multi(
    multi: MultiSketch, start: int, stop: int, metric: str, epsilon: float, scale: float
) -> FlatnessResult:
    """One unvalidated flatness query answered by per-set binary searches."""
    length = _check_interval(start, stop)
    median_z = lambda: multi.median_conditional_norm(start, stop)  # noqa: E731
    if metric == "l2":
        counts = multi.counts(start, stop).astype(np.float64)
        return l2_flatness_verdict(counts, multi.set_size, length, epsilon, median_z)
    counts = multi.counts(start, stop)
    return l1_flatness_verdict(counts, length, epsilon, scale, median_z)


def test_flatness_l2(
    multi: MultiSketch, start: int, stop: int, epsilon: float
) -> FlatnessResult:
    """``testFlatness-l2`` (Algorithm 3) — one-shot, validating form."""
    _check_interval(start, stop)
    validate_flatness_epsilon(epsilon)
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
    validate_flatness_epsilon(epsilon)
    validate_flatness_scale(scale)
    return _query_multi(multi, start, stop, "l1", epsilon, scale)


def flatness_oracle(
    multi: MultiSketch, metric: str, epsilon: float, scale: float = 1.0
) -> FlatnessOracle:
    """A validate-once per-query oracle over a raw sketch.

    This is Algorithm 2's ``engine="full"`` reference path: parameters
    are checked here, once per tester invocation, instead of inside each
    of the O(k log n) binary-search probes; each query then re-runs the
    per-set ``searchsorted`` counts and a fresh median-of-r estimate.
    """
    validate_metric(metric)
    validate_flatness_epsilon(epsilon)
    validate_flatness_scale(scale)
    return lambda start, stop: _query_multi(multi, start, stop, metric, epsilon, scale)


# ------------------------------------------------------------------ #
# compiled engine (engine="compiled")
# ------------------------------------------------------------------ #


class CompiledTesterSketches:
    """A :class:`MultiSketch` compiled for O(r) flatness queries.

    Mirrors :class:`repro.core.greedy.CompiledGreedySketches`: the
    expensive per-draw work — one batched sort over all ``r`` sets and
    prefix evaluation on the full endpoint grid ``[0, n]`` — happens once
    at compile time (:func:`compile_tester_sketches`), after which any
    interval's per-set hit and pair counts are two gathers of contiguous
    length-``r`` rows (the ``(n + 1, r)`` C-contiguous layout below).

    On top of the gathers sits a verdict memo keyed by
    ``(start, stop, metric, epsilon, scale)``.  Algorithm 2's binary
    search, the points of a ``test_many`` grid, and min-k sweeps all
    re-probe overlapping intervals; the memo answers repeats in O(1)
    (``memo_hits`` / ``memo_misses`` account for it).  Verdicts are
    frozen dataclasses, so sharing them is safe, and the query *log*
    Algorithm 2 returns is unaffected — every probe is logged whether or
    not its verdict came from the memo.

    Memory is O(n r); for domains too large to afford that, the
    ``engine="full"`` per-query path remains available everywhere.
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
        num_sets = self._count_cols.shape[1]
        # Reusable per-query buffers: one flatness query allocates nothing
        # beyond numpy's internal median scratch.
        self._counts = np.empty(num_sets, dtype=np.int64)
        self._pairs = np.empty(num_sets, dtype=np.int64)
        self._denom = np.empty(num_sets, dtype=np.int64)
        self._ratio_buf = np.empty(num_sets, dtype=np.float64)
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

    def _median_conditional_norm(self, start: int, stop: int) -> float:
        """Median-of-r [GR00] estimate from the compiled rows, in place."""
        counts = self._counts  # gathered by the caller for this interval
        np.subtract(self._pair_cols[stop], self._pair_cols[start], out=self._pairs)
        # C(counts, 2) in exact int64 math, matching utils.prefix.pairs_count.
        np.subtract(counts, 1, out=self._denom)
        np.multiply(self._denom, counts, out=self._denom)
        np.floor_divide(self._denom, 2, out=self._denom)
        return float(np.median(_ratio(self._pairs, self._denom, out=self._ratio_buf)))

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
        counts = np.subtract(
            self._count_cols[stop], self._count_cols[start], out=self._counts
        )
        median_z = lambda: self._median_conditional_norm(start, stop)  # noqa: E731
        if metric == "l2":
            result = l2_flatness_verdict(
                counts, self._set_size, length, epsilon, median_z
            )
        else:
            result = l1_flatness_verdict(counts, length, epsilon, scale, median_z)
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
        validate_flatness_epsilon(epsilon)
        validate_flatness_scale(scale)
        return lambda start, stop: self.query(start, stop, metric, epsilon, scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledTesterSketches(n={self.n}, r={self.num_sets}, "
            f"m={self._set_size}, memo={self.memo_size})"
        )


def _resolve_stats(
    count_stack: np.ndarray,
    pair_stack: np.ndarray,
    members: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    metric: str,
    epsilon: float,
    scale: float,
    set_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched flatness statistics off the ``(F, n + 1, r)`` stacks.

    Returns ``(light, z, threshold)`` rows for one batch of probes.
    Every expression is row-wise (each output row depends only on its
    own probe); the expressions mirror :func:`l2_flatness_verdict` /
    :func:`l1_flatness_verdict` operand for operand, which is what makes
    the batched results bit-identical to the scalar kernels.
    """
    counts = count_stack[members, stops] - count_stack[members, starts]
    lengths = stops - starts
    if metric == "l2":
        light = np.any(counts / set_size < epsilon**2 / 2, axis=1)
    else:
        # scale * flatness_l1_min_hits(length, epsilon), vectorised:
        # np.sqrt and math.sqrt are both correctly-rounded IEEE ops,
        # so the batched thresholds equal the scalar kernel's bits.
        min_hits = scale * ((16**3) * np.sqrt(lengths) / epsilon**4)
        light = np.any(counts < min_hits[:, None], axis=1)
    heavy = ~light
    z = np.zeros(members.shape[0])
    threshold = np.zeros(members.shape[0])
    if np.any(heavy):
        h_counts = counts[heavy]
        pairs = (
            pair_stack[members[heavy], stops[heavy]]
            - pair_stack[members[heavy], starts[heavy]]
        )
        denom = (h_counts - 1) * h_counts // 2
        ratio = np.zeros(h_counts.shape, dtype=np.float64)
        np.divide(pairs, denom, out=ratio, where=denom > 0)
        z[heavy] = np.median(ratio, axis=1)
        if metric == "l2":
            p_hat = 2.0 * h_counts / set_size
            threshold[heavy] = 1.0 / lengths[heavy] + np.max(
                epsilon**2 / (2.0 * p_hat), axis=1
            )
        else:
            threshold[heavy] = (1.0 / lengths[heavy]) * (1.0 + epsilon**2 / 4.0)
    return light, z, threshold


class FleetFlatnessOracle:
    """A validate-once batched flatness oracle over a fleet's stacks.

    The lockstep partition driver (:func:`repro.core.tester.fleet_flat_partition`)
    separates memo traffic from fresh statistics: :meth:`lookup` answers a
    single member's probe from that member's verdict memo (or reports a
    miss), and :meth:`resolve` computes one batch of misses — at most one
    per member — with fleet-axis gathers and row-wise medians.  Both
    sides of the split maintain the per-member memo and its hit/miss
    accounting exactly as :meth:`CompiledTesterSketches.query` would, so
    a fleet run leaves every member's compiled sketches in the same state
    a looped single-session run would have.

    The vectorised verdict math mirrors :func:`l2_flatness_verdict` /
    :func:`l1_flatness_verdict` expression for expression (same operand
    order, same dtypes), which is what makes the batched results
    bit-identical to the scalar kernels — the lockstep suite asserts it.
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

    def lookup(self, member: int, start: int, stop: int) -> FlatnessResult | None:
        """The memoised verdict for one member's probe, or ``None`` on miss."""
        sketches = self._fleet.member(member)
        cached = sketches._memo.get(
            (start, stop, self._metric, self._epsilon, self._scale)
        )
        if cached is not None:
            sketches.memo_hits += 1
        return cached

    def resolve(
        self, members: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> list[FlatnessResult]:
        """Fresh verdicts for a batch of memo misses (one per member).

        Gathers every probed member's per-set hit/pair rows with two
        fancy indexes on the ``(F, n + 1, r)`` stacks, evaluates the
        light checks and (for non-light rows only, matching the scalar
        kernels' lazy median) the median-of-r statistics, then memoises
        each verdict on its member with a miss tick.
        """
        members = np.asarray(members, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if np.any(stops <= starts):
            raise InvalidParameterError(
                "flatness test needs non-empty intervals in every probe"
            )
        epsilon, scale, metric = self._epsilon, self._scale, self._metric
        count_stack, pair_stack = self._fleet.stacks
        light, z, threshold = _resolve_stats(
            count_stack,
            pair_stack,
            members,
            starts,
            stops,
            metric,
            epsilon,
            scale,
            self._fleet.set_size,
        )
        results: list[FlatnessResult] = []
        fleet_members = self._fleet._members
        z_list = z.tolist()
        threshold_list = threshold.tolist()
        for member, start, stop, is_light, stat, bound in zip(
            members.tolist(), starts.tolist(), stops.tolist(),
            light.tolist(), z_list, threshold_list,
        ):
            if is_light:
                result = FlatnessResult(True, REASON_LIGHT, None, None)
            elif stat <= bound:
                result = FlatnessResult(True, REASON_COLLISION_OK, stat, bound)
            else:
                result = FlatnessResult(False, REASON_REJECTED, stat, bound)
            sketches = fleet_members[member]
            sketches.memo_misses += 1
            sketches._memo[(start, stop, metric, epsilon, scale)] = result
            results.append(result)
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

    Memory is O(F n r); the per-member ``engine="full"`` path remains
    available for domains too large to afford that.
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
        shape = (fleet_size, n + 1, num_sets)
        self._count_stack = np.zeros(shape, dtype=np.int64)
        self._pair_stack = np.zeros(shape, dtype=np.int64)
        self._set_size = int(set_size)
        self._members: list[CompiledTesterSketches | None] = [None] * fleet_size

    @property
    def n(self) -> int:
        """Domain size (the stacks hold every endpoint ``0..n``)."""
        return self._count_stack.shape[1] - 1

    @property
    def num_sets(self) -> int:
        """The replication factor ``r``."""
        return self._count_stack.shape[2]

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

        Uses the sort-free dense prefix builder
        (:func:`repro.samples.collision.dense_interval_prefixes`) when
        the domain is within a constant of the member's total sample
        count — the fleet-serving regime — and falls back to the
        one-sort batched pass for very large sparse domains.  Both
        produce identical integers, so the choice never shows in any
        verdict.  The returned member wraps a zero-copy view of the slab
        and starts with a fresh (empty) verdict memo.
        """
        from repro.samples.collision import (
            batched_interval_prefixes,
            dense_interval_prefixes,
        )

        self._detach_member(index)
        n = self.n
        if len(sample_sets) != self.num_sets or any(
            s.shape[0] != self._set_size for s in sample_sets
        ):
            raise InvalidParameterError(
                "sample sets do not match the fleet's (num_sets, set_size) layout"
            )
        if n + 1 <= 4 * self.num_sets * self._set_size:
            count_rows, pair_rows = dense_interval_prefixes(sample_sets, n)
        else:
            grid = np.arange(n + 1, dtype=np.int64)
            count_rows, pair_rows = batched_interval_prefixes(sample_sets, n, grid)
        self._count_stack[index] = count_rows.T
        self._pair_stack[index] = pair_rows.T
        member = CompiledTesterSketches(
            self._count_stack[index], self._pair_stack[index], self._set_size
        )
        self._members[index] = member
        return member

    def adopt_member(self, index: int, sketches: CompiledTesterSketches) -> None:
        """Adopt an externally compiled member into the stacks.

        Copies the member's gather layout into its slab and keeps the
        *object* — verdict memo, accounting and all — as the fleet
        member, so a session that compiled (and partially memoised) its
        own sketches before joining a fleet operation loses nothing.
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
            self._count_stack[index] = sketches._count_cols
            self._pair_stack[index] = sketches._pair_cols
            self._members[index] = sketches

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
        validate_flatness_epsilon(epsilon)
        validate_flatness_scale(scale)
        return FleetFlatnessOracle(self, metric, epsilon, scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        compiled = sum(1 for m in self._members if m is not None)
        return (
            f"FleetTesterSketches(F={self.fleet_size} ({compiled} compiled), "
            f"n={self.n}, r={self.num_sets}, m={self._set_size})"
        )


def compile_tester_sketches(multi: MultiSketch) -> CompiledTesterSketches:
    """Compile a :class:`MultiSketch` into the tester's gather layout.

    Pure in the sketch contents, so the result is reusable by any number
    of ``(k, epsilon)`` tester or min-k calls over the same draw (which
    is how :class:`repro.api.SketchBundle` caches it).

    Each per-set sketch already holds its sorted distinct values and
    prefix sums (built once at :class:`MultiSketch` construction), so
    compilation is ``r`` batched ``searchsorted`` evaluations of the full
    endpoint grid — no re-sort of the raw samples.  (Measured against
    re-running the one-sort batched pass of
    :func:`repro.samples.collision.batched_interval_prefixes` over the
    raw sets, reusing the per-set sorts is 5-8x cheaper; the batched pass
    remains the right tool where no per-set sketches exist, i.e. the
    greedy compile path.)
    """
    n = multi.n
    grid = np.arange(n + 1, dtype=np.int64)
    per_set = [sketch.prefixes_on_grid(grid) for sketch in multi.sketches]
    count_rows = np.stack([c for c, _ in per_set])
    pair_rows = np.stack([p for _, p in per_set])
    return CompiledTesterSketches(
        np.ascontiguousarray(count_rows.T),
        np.ascontiguousarray(pair_rows.T),
        multi.set_size,
    )
