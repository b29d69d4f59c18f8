"""The greedy priority-histogram learner (Algorithm 1 / Theorem 2).

The algorithm draws

* one weight sample ``S`` of size ``ell`` giving ``y_I = |S_I| / ell``,
* ``r`` collision sets of size ``m`` giving
  ``z_I = median_i coll(S^i_I) / C(m, 2)`` (the absolute second-moment
  estimator of Lemma 1),

and runs ``q = k ln(1/eps)`` rounds.  Each round scores every candidate
interval ``J`` by the estimated squared-l2 cost of the histogram obtained
by painting ``J`` (with value ``y_J / |J|``) over the current one, then
commits the argmin.

Two faithfulness details (README.md, "Design notes"):

* the cost ``c_J`` sums ``z_I - y_I^2 / |I|`` over *all* segments of the
  flattened result, counting never-covered gaps as zero-valued pieces
  (``cost = z_I``), which is what makes costs comparable across ``J``;
* painting ``J`` truncates at most two existing pieces; their remainders
  are re-added with *re-estimated* weights (Algorithm 1's ``I_L, I_R``
  recomputation), so every visible piece always carries the weight
  estimate of its visible extent.  The engine therefore keeps the state
  eagerly flattened and reports the paper's priority log alongside.

Scoring is *incremental* (README.md, "Incremental scoring").  A
candidate's score decomposes as ``total + rel_J`` with

``rel_J = self_J - removed_J + left_J + right_J``

where ``self_J = z_J - y_J^2/|J|`` never changes across rounds (hoisted
into :class:`CompiledGreedySketches` at compile time, median included),
``removed_J`` is the summed cost of the segments the candidate covers,
and ``left_J``/``right_J`` are the truncated-remainder costs.  Because a
round repaints at most one interval and truncates at most two
neighbours, ``rel_J`` can only change for candidates whose span
intersects the segments changed by the last commit; everything else
shifts by the same global ``total`` delta, which preserves the argmin
order.  The remainder terms depend only on one candidate endpoint and
the content of its containing segment, so the engine tabulates them per
grid point, caches them across rounds, and refreshes them only over the
dirty grid span; it then rescores only the dirty candidates and keeps
candidate minima in a lazily-repaired block-argmin structure.  The
engine's private ``full_span`` mode refreshes every grid point and
rescores every candidate every round through the same code path — the
reference the test suite holds the production engine to, bit for bit.

The module is split into layers so samples can be reused across calls
(see :class:`repro.api.HistogramSession`):

* :func:`draw_greedy_samples` — the only part that touches the source;
* :func:`compile_greedy_sketches` — candidate grid + prefix compilation
  (one vectorised pass over all ``r`` collision sets) plus the
  round-invariant per-candidate self-costs;
* :func:`lockstep_learn` — the greedy rounds of any number of runs over
  compiled sketches, advanced together round by round: the one learn
  driver every session, fleet and maintainer goes through;
* :func:`learn_from_samples` — the pure algorithm over one draw.

:func:`learn_histogram` is the classic one-shot composition.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.candidates import (
    CandidateSet,
    all_interval_candidates,
    sample_endpoint_candidates,
)
from repro.core.params import GreedyParams
from repro.core.results import GreedyRound, LearnResult
from repro.errors import InvalidParameterError
from repro.histograms.intervals import Interval
from repro.histograms.priority import PriorityHistogram
from repro.histograms.tiling import TilingHistogram
from repro.utils.deprecation import warn_one_shot_shim
from repro.utils.prefix import pairs_count
from repro.utils.rng import as_rng

_METHODS = ("fast", "exhaustive")
_SCORE_CHUNK = 200_000
_GATHER_CHUNK = 1_000_000
_ARGMIN_BLOCK = 2_048


def _score_gather(
    self_costs: np.ndarray,
    removed_pair: np.ndarray,
    left_at: np.ndarray,
    right_at: np.ndarray,
) -> np.ndarray:
    """``rel = self - removed + left + right`` over pre-gathered operands.

    The one arithmetic spelling of the incremental decomposition: the
    float op order here is part of the byte-identity contract, so nobody
    spells it twice.
    """
    rel = self_costs - removed_pair
    rel = rel + left_at
    rel = rel + right_at
    return rel


def _piece_costs(
    grid: np.ndarray,
    weight_prefix: np.ndarray,
    weight_total: float,
    pair_prefix_cols: np.ndarray,
    pairs_per_set: float,
    lo: np.ndarray,
    hi: np.ndarray,
    assigned: np.ndarray | bool,
) -> np.ndarray:
    """``z_I - y_I^2 / |I|`` for assigned pieces, ``z_I`` for gaps.

    The one scoring expression shared by the compile-time self-cost pass,
    the per-round remainder terms, and the cached segment costs.  A
    single code path is what makes a cached score bit-identical to a
    fresh rescore — the invariant the engine relies on.  Rows are
    independent (``np.median(..., axis=1)``), so tabulating a sub-span of
    points yields the same bits as tabulating the whole grid.
    """
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    lengths = (grid[hi] - grid[lo]).astype(np.float64)
    per_set = (pair_prefix_cols[hi] - pair_prefix_cols[lo]) / pairs_per_set
    z = np.median(per_set, axis=1)
    y = (weight_prefix[hi] - weight_prefix[lo]) / weight_total
    fitted = z - y * y / np.maximum(lengths, 1.0)
    return np.where(np.asarray(assigned), fitted, z)


def _candidate_self_costs(
    candidates: CandidateSet,
    weight_prefix: np.ndarray,
    weight_total: float,
    pair_prefix_cols: np.ndarray,
    pairs_per_set: float,
    chunk_size: int = _SCORE_CHUNK,
) -> np.ndarray:
    """Round-invariant ``z_J - y_J^2/|J|`` for every candidate (chunked)."""
    out = np.empty(candidates.size, dtype=np.float64)
    for start in range(0, candidates.size, chunk_size):
        sl = slice(start, min(start + chunk_size, candidates.size))
        out[sl] = _piece_costs(
            candidates.grid,
            weight_prefix,
            weight_total,
            pair_prefix_cols,
            pairs_per_set,
            candidates.lo[sl],
            candidates.hi[sl],
            True,
        )
    return out


@dataclass(frozen=True)
class RoundReport:
    """What one committed greedy round did, trace-ready.

    ``neighbours`` holds the re-added truncated remainders of *assigned*
    pieces (Algorithm 1's ``I_L, I_R``) with their re-estimated values,
    in left-to-right order — exactly the pieces the priority log gains
    this round besides ``chosen`` itself.
    """

    candidate_index: int
    cost: float
    weight_estimate: float
    chosen: Interval
    value: float
    neighbours: list[tuple[Interval, float]]
    rescored: int


class _GreedyEngine:
    """Vectorised greedy rounds over cached, dirty-span-refreshed terms.

    State per candidate: ``rel_J`` (score minus the shared ``total``
    term), valid as of the last round that touched it.  State per grid
    point: the left/right remainder terms, valid as of the last round
    whose dirty span covered the point.  State per segment: grid-index
    endpoints, assignedness, and the cached piece cost.  A round is three
    phases — :meth:`rescore`, :meth:`argmin`, :meth:`commit` — which
    :func:`lockstep_learn` times separately.

    ``full_span=True`` treats the whole grid as dirty every round: every
    term is re-tabulated and every candidate rescored through the same
    code path.  That is the private reference the tests hold the
    production mode to; nothing in the library runs it.
    """

    def __init__(
        self, compiled: "CompiledGreedySketches", *, full_span: bool = False
    ) -> None:
        candidates = compiled.candidates
        self._cands = candidates
        self._grid = candidates.grid
        self._wprefix = np.asarray(compiled.weight_prefix).astype(np.float64)
        self._wtotal = float(compiled.weight_set.size)
        self._pp_cols = np.ascontiguousarray(
            compiled.pair_prefix_cols, dtype=np.float64
        )
        self._pairs_per_set = float(compiled.pairs_per_set)
        self._self_cost = np.asarray(compiled.self_costs, dtype=np.float64)
        self._full_span = bool(full_span)

        last = self._grid.size - 1
        self._seg_lo: list[int] = [0]
        self._seg_hi: list[int] = [last]
        self._seg_assigned: list[bool] = [False]
        self._seg_cost: list[float] = [
            float(self._piece_cost(np.asarray([0]), np.asarray([last]), False)[0])
        ]
        # Everything is dirty before the first round.
        self._dirty_lo = 0
        self._dirty_hi = last
        self._left_term = np.empty(self._grid.size, dtype=np.float64)
        self._right_term = np.empty(self._grid.size, dtype=np.float64)

        # ``rel`` lives padded to a whole number of argmin blocks (the
        # pad stays +inf forever) so block repair is one reshaped
        # ``min(axis=1)`` instead of a Python loop per touched block.
        self._block = _ARGMIN_BLOCK
        num_blocks = max(1, -(-candidates.size // self._block))
        rel_padded = np.full(num_blocks * self._block, np.inf)
        self._rel = rel_padded[: candidates.size]
        self._rel_blocks = rel_padded.reshape(num_blocks, self._block)
        self._block_min = np.full(num_blocks, np.inf)

    # -------------------------------------------------------------- #
    # estimate queries (grid-index space, vectorised)
    # -------------------------------------------------------------- #

    def _y(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Weight estimates ``y`` over ``[grid[lo], grid[hi])``."""
        return (self._wprefix[hi] - self._wprefix[lo]) / self._wtotal

    def _piece_cost(
        self, lo: np.ndarray, hi: np.ndarray, assigned: np.ndarray | bool
    ) -> np.ndarray:
        """``z_I - y_I^2 / |I|`` for assigned pieces, ``z_I`` for gaps."""
        return _piece_costs(
            self._grid,
            self._wprefix,
            self._wtotal,
            self._pp_cols,
            self._pairs_per_set,
            lo,
            hi,
            assigned,
        )

    # -------------------------------------------------------------- #
    # one greedy round
    # -------------------------------------------------------------- #

    def run_round(self) -> RoundReport:
        """Rescore the dirty span, commit the argmin, report the diff."""
        rescored = self.rescore()
        return self.commit(self.argmin(), rescored)

    def rescore(self) -> int:
        """Refresh the cached terms and ``rel`` over the dirty span.

        Every segment-dependent score term factors through a single
        candidate endpoint: the containing segment ``ia`` and the left
        remainder depend only on ``cand_lo``, ``ib`` and the right
        remainder only on ``cand_hi``, and the removed-cost term on the
        ``(ia, ib)`` pair.  The remainder terms are re-tabulated only at
        the dirty grid points — every other point's containing segment is
        unchanged — while ``ia``/``ib`` are looked up afresh at the dirty
        candidates' endpoints, because segment *indices* shift globally
        when the segment list grows.  Returns how many candidates were
        rescored.
        """
        if self._full_span:
            lo, hi = 0, self._grid.size - 1
        else:
            lo, hi = self._dirty_lo, self._dirty_hi
        seg_lo = np.asarray(self._seg_lo, dtype=np.int64)
        seg_hi = np.asarray(self._seg_hi, dtype=np.int64)
        seg_assigned = np.asarray(self._seg_assigned, dtype=bool)
        seg_costs = np.asarray(self._seg_cost, dtype=np.float64)
        # removed[a, b]: summed cost of segments a..b, accumulated fresh
        # from a (never as a difference of running prefixes) so the value
        # for an untouched segment range is bitwise round-stable.
        count = seg_lo.size
        removed = np.zeros((count, count))
        for a in range(count):
            removed[a, a:] = np.cumsum(seg_costs[a:])
        grid = self._grid
        seg_starts = grid[seg_lo]

        span = slice(lo, hi + 1)
        points = np.arange(lo, hi + 1, dtype=np.int64)
        at = grid[span]
        ia = np.searchsorted(seg_starts, at, side="right") - 1
        ib = np.searchsorted(seg_starts, at - 1, side="right") - 1
        # Left remainder [segment start, a) for a candidate starting at a.
        lcost = self._piece_cost(seg_lo[ia], points, seg_assigned[ia])
        self._left_term[span] = np.where(seg_starts[ia] < at, lcost, 0.0)
        # Right remainder [b, segment stop) for a candidate ending at b.
        rcost = self._piece_cost(points, seg_hi[ib], seg_assigned[ib])
        self._right_term[span] = np.where(grid[seg_hi[ib]] > at, rcost, 0.0)

        dirty = self._cands.intersecting(lo, hi)
        # When dirty candidates outnumber grid points, index per-point
        # segment tables instead of searching once per candidate endpoint
        # (the same integers either way).
        per_point = dirty.size > grid.size
        if per_point:
            ia_at = np.searchsorted(seg_starts, grid, side="right") - 1
            ib_at = np.searchsorted(seg_starts, grid - 1, side="right") - 1
        for start in range(0, dirty.size, _GATHER_CHUNK):
            part = dirty[start : start + _GATHER_CHUNK]
            cand_lo = self._cands.lo[part]
            cand_hi = self._cands.hi[part]
            if per_point:
                ia, ib = ia_at[cand_lo], ib_at[cand_hi]
            else:
                ia = np.searchsorted(seg_starts, grid[cand_lo], side="right") - 1
                ib = np.searchsorted(seg_starts, grid[cand_hi] - 1, side="right") - 1
            self._rel[part] = _score_gather(
                self._self_cost[part],
                removed[ia, ib],
                self._left_term[cand_lo],
                self._right_term[cand_hi],
            )
        if dirty.size:
            self._repair_blocks(dirty)
        return int(dirty.size)

    def commit(self, best: int, rescored: int) -> RoundReport:
        """Commit candidate ``best`` and report the round's diff."""
        # ``total`` is shared by every candidate this round; summed fresh
        # from the cached per-segment costs.
        total = float(np.sum(np.asarray(self._seg_cost, dtype=np.float64)))
        cost = float(total + self._rel[best])
        lo = int(self._cands.lo[best])
        hi = int(self._cands.hi[best])
        chosen = Interval(int(self._grid[lo]), int(self._grid[hi]))
        chosen_y = float(self._y(np.asarray([lo]), np.asarray([hi]))[0])
        neighbours = self._apply(best)
        return RoundReport(
            candidate_index=best,
            cost=cost,
            weight_estimate=chosen_y,
            chosen=chosen,
            value=chosen_y / chosen.length,
            neighbours=neighbours,
            rescored=rescored,
        )

    def _repair_blocks(self, indices: np.ndarray) -> None:
        """Recompute block minima for the blocks ``indices`` touch.

        ``indices`` ascends (``np.nonzero`` order), so consecutive
        deduplication finds each touched block once, and the padded
        reshaped view turns the repair into one fancy-indexed
        ``min(axis=1)`` — no Python loop over blocks.
        """
        blocks = indices // self._block
        touched = blocks[np.flatnonzero(np.diff(blocks, prepend=-1))]
        self._block_min[touched] = self._rel_blocks[touched].min(axis=1)

    def argmin(self) -> int:
        """Global first-minimum via the block minima (ties break low)."""
        block = int(np.argmin(self._block_min))
        begin = block * self._block
        within = self._rel[begin : begin + self._block]
        return begin + int(np.argmin(within))

    def _apply(self, candidate_index: int) -> list[tuple[Interval, float]]:
        """Commit a candidate: truncate neighbours, insert the new piece.

        Returns the re-added *assigned* remainders (left-to-right) with
        their re-estimated values, and records the dirty grid-index span
        — the full original extent of every segment this commit touched —
        for the next round's rescoring.
        """
        lo = int(self._cands.lo[candidate_index])
        hi = int(self._cands.hi[candidate_index])
        # Affected segments: seg_hi > lo and seg_lo < hi (both sorted).
        first = bisect_right(self._seg_hi, lo)
        last = bisect_left(self._seg_lo, hi) - 1
        dirty_lo = self._seg_lo[first]
        dirty_hi = self._seg_hi[last]

        pieces: list[tuple[int, int, bool]] = []
        left: tuple[int, int, bool] | None = None
        right: tuple[int, int, bool] | None = None
        if dirty_lo < lo:
            left = (dirty_lo, lo, self._seg_assigned[first])
            pieces.append(left)
        pieces.append((lo, hi, True))
        if dirty_hi > hi:
            right = (hi, dirty_hi, self._seg_assigned[last])
            pieces.append(right)

        costs = self._piece_cost(
            np.asarray([p[0] for p in pieces]),
            np.asarray([p[1] for p in pieces]),
            np.asarray([p[2] for p in pieces]),
        )
        self._seg_lo[first : last + 1] = [p[0] for p in pieces]
        self._seg_hi[first : last + 1] = [p[1] for p in pieces]
        self._seg_assigned[first : last + 1] = [p[2] for p in pieces]
        self._seg_cost[first : last + 1] = [float(c) for c in costs]
        self._dirty_lo = dirty_lo
        self._dirty_hi = dirty_hi

        neighbours: list[tuple[Interval, float]] = []
        for remainder in (left, right):
            if remainder is None or not remainder[2]:
                continue
            interval = Interval(
                int(self._grid[remainder[0]]), int(self._grid[remainder[1]])
            )
            y = float(
                self._y(np.asarray([remainder[0]]), np.asarray([remainder[1]]))[0]
            )
            neighbours.append((interval, y / interval.length))
        return neighbours

    # -------------------------------------------------------------- #
    # output
    # -------------------------------------------------------------- #

    def segments(self) -> list[tuple[Interval, bool]]:
        """Current flattened segments as ``(interval, assigned)`` pairs."""
        return [
            (Interval(int(self._grid[lo]), int(self._grid[hi])), assigned)
            for lo, hi, assigned in zip(
                self._seg_lo, self._seg_hi, self._seg_assigned
            )
        ]

    def to_tiling(self, n: int, fill_gaps: bool = False) -> TilingHistogram:
        """The flattened state as a tiling histogram.

        Assigned pieces get value ``y_I / |I|``.  Gaps get 0 (the paper's
        priority-histogram semantics) unless ``fill_gaps``, in which case
        they too get their weight estimate — an application-oriented
        extension that never hurts the squared error and markedly helps
        range queries over low-density regions (README.md, "Design
        notes").
        """
        boundaries = [0]
        values = []
        for lo, hi, assigned in zip(self._seg_lo, self._seg_hi, self._seg_assigned):
            start, stop = int(self._grid[lo]), int(self._grid[hi])
            boundaries.append(stop)
            if assigned or fill_gaps:
                y = float(self._y(np.asarray([lo]), np.asarray([hi]))[0])
                values.append(y / (stop - start))
            else:
                values.append(0.0)
        return TilingHistogram(n, boundaries, values)


def _build_priority_log(
    n: int, engine_trace: list[tuple[Interval, float, list[tuple[Interval, float]]]]
) -> PriorityHistogram:
    """Reconstruct the paper's priority histogram from the round trace."""
    log = PriorityHistogram(n)
    for chosen, value, neighbours in engine_trace:
        pieces = [(chosen, value)]
        pieces.extend(neighbours)
        log.add_many(pieces)
    return log


@dataclass(frozen=True)
class GreedySamples:
    """The raw samples Algorithm 1 draws, decoupled from the source.

    Attributes
    ----------
    weight_samples:
        The single weight-estimation sample ``S`` (``y_I`` estimates).
    collision_sets:
        The ``r`` independent collision sample sets ``S^1, ..., S^r``
        (``z_I`` estimates).
    """

    weight_samples: np.ndarray
    collision_sets: tuple[np.ndarray, ...]

    def matches(self, params: GreedyParams) -> bool:
        """Whether the array shapes agree with ``params``' sizes."""
        return (
            self.weight_samples.shape[0] == params.weight_sample_size
            and len(self.collision_sets) == params.collision_sets
            and all(
                s.shape[0] == params.collision_set_size for s in self.collision_sets
            )
        )


@dataclass(frozen=True)
class CompiledGreedySketches:
    """Candidate grid plus compiled prefix sketches (the learner's input).

    Produced by :func:`compile_greedy_sketches`; building it is the
    expensive per-draw work (sorting, uniquing, prefix compilation, and
    the median-of-``r`` self-cost pass) that
    :class:`repro.api.HistogramSession` caches across calls.

    Attributes
    ----------
    candidates / weight_set / weight_prefix:
        The candidate grid and the weight sample compiled onto it.
    pair_prefix_cols:
        The ``r`` collision sets' pair-count prefixes in a C-contiguous
        ``(G, r)`` float64 layout: gathering one grid endpoint fetches
        all ``r`` prefix values from one contiguous stretch (the
        engine's hot gather).
    self_costs:
        Per-candidate ``z_J - y_J^2/|J|`` — including the median across
        the ``r`` sets — which never changes across greedy rounds.
    pairs_per_set:
        ``C(m, 2)``, the collision-count normaliser.
    """

    candidates: CandidateSet
    weight_set: "SampleSet"
    weight_prefix: np.ndarray
    pair_prefix_cols: np.ndarray
    self_costs: np.ndarray
    pairs_per_set: float


def draw_greedy_samples(
    source: object,
    params: GreedyParams,
    rng: int | None | np.random.Generator = None,
) -> GreedySamples:
    """Draw Algorithm 1's samples from ``source`` (the only sampling step).

    Draw order is part of the public contract: one weight sample of
    ``params.weight_sample_size``, then ``params.collision_sets`` sets of
    ``params.collision_set_size``, all from the same generator — so any
    caller that reproduces this order is seed-for-seed compatible with
    :func:`learn_histogram`.
    """
    generator = as_rng(rng)
    weight_samples = np.asarray(source.sample(params.weight_sample_size, generator))
    collision_sets = tuple(
        np.asarray(source.sample(params.collision_set_size, generator))
        for _ in range(params.collision_sets)
    )
    return GreedySamples(weight_samples, collision_sets)


def compile_greedy_sketches(
    samples: GreedySamples,
    n: int,
    *,
    method: str = "fast",
    max_candidates: int | None = None,
    rng: int | None | np.random.Generator = None,
    prefixes: str = "sorted",
    executor: "object | None" = None,
) -> CompiledGreedySketches:
    """Build the candidate set and compile every sketch onto its grid.

    Pure in the samples (``rng`` is consumed only when ``max_candidates``
    forces a subsample).  The result depends on the sample *contents*,
    so it is reusable by any number of ``(k, epsilon)`` learn calls over
    the same draw.

    All ``r`` collision sets are compiled in one vectorised sort/unique
    pass (:func:`repro.samples.collision.batched_pair_prefixes`), and the
    per-candidate self-costs — the median-of-``r`` part of every score —
    are hoisted here because they are invariant across greedy rounds.

    ``prefixes`` selects the prefix builder: ``"sorted"`` (the batched
    one-sort pass above) or ``"dense"`` — counting-based full-grid
    prefixes (:func:`repro.samples.collision.dense_interval_prefixes`)
    gathered at the candidate grid, plus a counting sort of the weight
    sample.  All arithmetic is exact integer math either way, so the two
    builders produce bit-identical compiled sketches; ``"dense"`` is the
    fleet compiler's choice when the domain is within a constant of the
    sample sizes.

    ``executor`` (a :class:`repro.api.ParallelExecutor`) switches the
    prefix build to the shard-mergeable path
    (:func:`repro.samples.sharded.sharded_interval_prefixes`): every
    collision set splits into the executor's shards, per-shard summaries
    compile independently — across the pool when the executor is
    parallel — and only the ``(G, r)`` gather slab is materialised
    whole.  Bit-identical to both monolithic builders for any
    ``(shards, workers)``, so callers mix freely.
    """
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if prefixes not in ("sorted", "dense"):
        raise InvalidParameterError(
            f"prefixes must be 'sorted' or 'dense', got {prefixes!r}"
        )
    started = perf_counter()
    if method == "fast":
        # The lazy capped build never materialises the uncapped pair
        # arrays, yet consumes ``rng`` and picks candidates exactly like
        # building everything then subsampling (see ``_triu_pairs``).
        candidates = sample_endpoint_candidates(
            samples.weight_samples, n, max_candidates=max_candidates, rng=rng
        )
    else:
        candidates = all_interval_candidates(n)
        if max_candidates is not None:
            candidates = candidates.subsample(max_candidates, as_rng(rng))

    from repro.samples.collision import batched_pair_prefixes, dense_interval_prefixes
    from repro.samples.sample_set import SampleSet

    if executor is not None:
        from repro.samples.sharded import ShardedSketch, sharded_interval_prefixes

        num_shards = executor.plan.num_shards
        sharded_weight = ShardedSketch.from_array(
            np.asarray(samples.weight_samples, dtype=np.int64), n, num_shards
        )
        weight_set = SampleSet.from_sorted(sharded_weight.merge(), n)
        pair_rows = sharded_interval_prefixes(
            samples.collision_sets,
            n,
            candidates.grid,
            num_shards=num_shards,
            mapper=executor.map,
            dense=(prefixes == "dense") or None,
            counts=False,
        )[1]
        pair_prefix_cols = np.ascontiguousarray(pair_rows.T, dtype=np.float64)
    elif prefixes == "dense":
        weight_values = np.asarray(samples.weight_samples, dtype=np.int64)
        if weight_values.size and (
            weight_values.min() < 0 or weight_values.max() >= n
        ):
            raise InvalidParameterError("samples contain values outside [0, n)")
        weight_counts = np.bincount(weight_values, minlength=n)
        weight_set = SampleSet.from_sorted(
            np.repeat(np.arange(n, dtype=np.int64), weight_counts), n
        )
        pair_rows = dense_interval_prefixes(samples.collision_sets, n)[1]
        pair_prefix_cols = np.ascontiguousarray(
            pair_rows[:, candidates.grid].T, dtype=np.float64
        )
    else:
        weight_set = SampleSet(samples.weight_samples, n)
        pair_prefix_cols = np.ascontiguousarray(
            batched_pair_prefixes(samples.collision_sets, n, candidates.grid).T,
            dtype=np.float64,
        )
    weight_prefix = weight_set.count_prefix_on_grid(candidates.grid)
    set_size = samples.collision_sets[0].shape[0] if samples.collision_sets else 0
    pairs_per_set = float(pairs_count(set_size))
    self_costs = _candidate_self_costs(
        candidates,
        weight_prefix.astype(np.float64),
        float(weight_set.size),
        pair_prefix_cols,
        pairs_per_set,
    )
    if executor is not None and hasattr(executor, "record_timing"):
        executor.record_timing("compile", perf_counter() - started)
    return CompiledGreedySketches(
        candidates,
        weight_set,
        weight_prefix,
        pair_prefix_cols,
        self_costs,
        pairs_per_set,
    )


def _package_result(
    engine_obj: _GreedyEngine,
    reports: list[RoundReport],
    n: int,
    params: GreedyParams,
    method: str,
) -> LearnResult:
    """Package a finished engine + its round reports as a LearnResult."""
    size = engine_obj._cands.size
    trace: list[tuple[Interval, float, list[tuple[Interval, float]]]] = []
    rounds: list[GreedyRound] = []
    for round_index, report in enumerate(reports):
        trace.append((report.chosen, report.value, report.neighbours))
        rounds.append(
            GreedyRound(
                round_index=round_index,
                chosen=report.chosen,
                weight_estimate=report.weight_estimate,
                estimated_cost=report.cost,
                candidates_evaluated=size,
            )
        )
    return LearnResult(
        histogram=engine_obj.to_tiling(n),
        priority_histogram=_build_priority_log(n, trace),
        params=params,
        rounds=rounds,
        method=method,
        num_candidates=size,
        samples_used=params.total_samples,
        filled_histogram=engine_obj.to_tiling(n, fill_gaps=True),
    )


@dataclass(frozen=True)
class LockstepRun:
    """One learn for :func:`lockstep_learn` to drive.

    ``compiled`` must come from :func:`compile_greedy_sketches` over the
    samples the learn is for; ``params.rounds`` is the run's round budget
    (runs with smaller budgets finish and drop out of the lockstep
    earlier).
    """

    compiled: CompiledGreedySketches
    params: GreedyParams
    method: str
    n: int


def lockstep_learn(
    runs: "list[LockstepRun]", *, executor: "object | None" = None
) -> list[LearnResult]:
    """Drive ``runs`` through their greedy rounds in lockstep.

    The one learn driver: every session, fleet and maintainer learn ends
    here.  Per round, one rescore pass over every run still inside its
    round budget, then one argmin pass, then one commit pass.  Each run
    owns its engine, so every result is byte-identical to driving that
    run alone — and to the full-span reference the tests compare against.

    ``executor`` never changes a result: when it keeps timing buckets
    (:meth:`repro.api.ParallelExecutor.record_timing`), the per-phase
    wall-clock is billed to it.
    """
    engines = [_GreedyEngine(run.compiled) for run in runs]
    reports: list[list[RoundReport]] = [[] for _ in runs]
    timings = {"rescore": 0.0, "argmin": 0.0, "commit": 0.0}
    for round_index in range(max((run.params.rounds for run in runs), default=0)):
        active = [i for i, run in enumerate(runs) if round_index < run.params.rounds]
        started = perf_counter()
        rescored = [engines[i].rescore() for i in active]
        timings["rescore"] += perf_counter() - started
        started = perf_counter()
        best = [engines[i].argmin() for i in active]
        timings["argmin"] += perf_counter() - started
        started = perf_counter()
        for i, index, count in zip(active, best, rescored):
            reports[i].append(engines[i].commit(index, count))
        timings["commit"] += perf_counter() - started
    if executor is not None and hasattr(executor, "record_timing"):
        for phase, seconds in timings.items():
            executor.record_timing(phase, seconds)
    return [
        _package_result(engine, run_reports, run.n, run.params, run.method)
        for engine, run_reports, run in zip(engines, reports, runs)
    ]


def _reference_learn(
    runs: "list[LockstepRun]",
    *,
    executor: "object | None" = None,
    full_span: bool = True,
) -> list[LearnResult]:
    """Drive each run alone through :meth:`_GreedyEngine.run_round`.

    The private reference the tests (and the out-of-core bench pair)
    hold :func:`lockstep_learn` to: with ``full_span`` every round
    re-tabulates every grid point and rescores every candidate.  It
    shares :func:`lockstep_learn`'s signature so it can stand in at a
    facade's driver seam; ``executor`` is ignored.
    """
    results = []
    for run in runs:
        engine = _GreedyEngine(run.compiled, full_span=full_span)
        reports = [engine.run_round() for _ in range(run.params.rounds)]
        results.append(
            _package_result(engine, reports, run.n, run.params, run.method)
        )
    return results


def learn_from_samples(
    samples: GreedySamples,
    n: int,
    k: int,
    epsilon: float,
    *,
    params: GreedyParams,
    method: str = "fast",
    max_candidates: int | None = None,
    rng: int | None | np.random.Generator = None,
    compiled: CompiledGreedySketches | None = None,
    executor: "object | None" = None,
) -> LearnResult:
    """Run the greedy rounds on already-drawn samples (no source access).

    This is the pure algorithmic half of :func:`learn_histogram`: given
    ``samples`` whose sizes match ``params`` it deterministically produces
    the same :class:`LearnResult` the one-shot entry point would.  Pass
    ``compiled`` (from :func:`compile_greedy_sketches` over the same
    samples) to skip the grid/prefix compilation.  The rounds run as a
    one-run :func:`lockstep_learn`; ``executor`` (a
    :class:`repro.api.ParallelExecutor`) is forwarded to the compile step
    and the timing buckets — results never depend on it.
    """
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if not samples.matches(params):
        raise InvalidParameterError(
            "sample array sizes do not match params "
            f"(weight {samples.weight_samples.shape[0]} vs "
            f"{params.weight_sample_size}, "
            f"{len(samples.collision_sets)} collision sets vs "
            f"{params.collision_sets})"
        )
    if compiled is None:
        compiled = compile_greedy_sketches(
            samples,
            n,
            method=method,
            max_candidates=max_candidates,
            rng=rng,
            executor=executor,
        )
    run = LockstepRun(compiled=compiled, params=params, method=method, n=n)
    return lockstep_learn([run], executor=executor)[0]


def learn_histogram(
    source: object,
    n: int,
    k: int,
    epsilon: float,
    *,
    method: str = "fast",
    scale: float = 1.0,
    params: GreedyParams | None = None,
    max_candidates: int | None = None,
    rng: int | None | np.random.Generator = None,
) -> LearnResult:
    """Learn a near-optimal histogram from samples (Theorems 1 / 2).

    .. deprecated:: 1.0
        One-shot composition of :func:`draw_greedy_samples` and
        :func:`learn_from_samples`, kept as the PR-1 seed-compat shim —
        a fresh :class:`repro.api.HistogramSession`'s first ``learn`` is
        seed-for-seed identical and reuses its draw for every later
        operation.  Calling this emits a :class:`DeprecationWarning`.

    Parameters
    ----------
    source:
        Anything satisfying :class:`repro.api.SampleSource` — typically a
        :class:`repro.distributions.DiscreteDistribution` (including
        :class:`~repro.distributions.EmpiricalDistribution` over a data
        column).
    n:
        Domain size.
    k:
        Histogram budget: the guarantee is relative to the best tiling
        k-histogram ``H*``.
    epsilon:
        Additive accuracy: ``||p - H||_2^2 <= ||p - H*||_2^2 + 5 eps``
        for ``method="exhaustive"`` (Theorem 1), ``+ 8 eps`` for
        ``method="fast"`` (Theorem 2), at ``scale = 1``.
    method:
        ``"exhaustive"`` scores all ``C(n, 2)`` intervals per round
        (Algorithm 1); ``"fast"`` scores only intervals with endpoints in
        the sample-derived set ``T'`` (Theorem 2).
    scale:
        Multiplier on the paper's sample sizes (see
        :mod:`repro.core.params`).
    params:
        Explicit sample sizes, overriding the paper formulas.
    max_candidates:
        Optional cap on the candidate count (uniform subsample; a
        documented deviation for very large inputs).
    rng:
        Seed or generator.

    Returns
    -------
    LearnResult
        The learned tiling histogram plus the paper's priority
        representation and a per-round trace.
    """
    warn_one_shot_shim("learn_histogram", "repro.api.HistogramSession.learn")
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if params is None:
        params = GreedyParams.from_paper(n, k, epsilon, scale=scale)
    generator = as_rng(rng)
    samples = draw_greedy_samples(source, params, generator)
    return learn_from_samples(
        samples,
        n,
        k,
        epsilon,
        params=params,
        method=method,
        max_candidates=max_candidates,
        rng=generator,
    )
