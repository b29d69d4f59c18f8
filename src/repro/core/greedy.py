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
dirty grid span; it then rescores only the dirty candidates.  Where the
candidates' ``rel`` lives follows the candidate set's form: a whole
triangle (every uncapped search) is a dense ``(K, K)`` matrix whose
dirty candidates are one rectangle of contiguous row slices, and a
pair list (a ``max_candidates`` cap, or a snapshot from before the
triangle form) is a flat vector with a block-argmin.  The two stores
agree bit for bit.  The engine's private ``full_span`` mode refreshes
every grid point and rescores every candidate every round through the
same code path — the reference the test suite holds the production
engine to, bit for bit.

The module is split into layers so samples can be reused across calls
(see :class:`repro.api.HistogramSession`):

* :func:`draw_greedy_samples` — the only part that touches the source;
* :func:`compile_greedy_sketches` — candidate grid + prefix compilation
  (one vectorised pass over all ``r`` collision sets) plus the
  round-invariant per-candidate self-costs (a dense matrix for a
  triangle, a flat vector for a pair list);
* :func:`lockstep_learn` — the greedy rounds of any number of runs over
  compiled sketches, each run stepped alone: the one learn driver every
  session, fleet and maintainer goes through;
* :func:`learn_from_samples` — the pure algorithm over one draw.

:func:`learn_histogram` is the classic one-shot composition.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

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
# Values in a scoring block's largest temporary: ``cells * r`` per-set
# estimates when compiling self-costs, ``cells`` when rescoring.  Blocks
# this small stay cache-resident; 200k-cell blocks measured up to 2x
# slower on a 2-core VM.
_SCORE_CHUNK = 65_536
_GATHER_CHUNK = 1_000_000
_ARGMIN_BLOCK = 2_048


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise middle value of three arrays (a min/max network)."""
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _median5(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Elementwise middle value of five arrays (a min/max network).

    The least and the greatest of ``a..d`` cannot be the middle of five,
    so dropping both leaves the middle of the other two and ``e``.
    """
    return _median3(
        np.maximum(np.minimum(a, b), np.minimum(c, d)),
        np.minimum(np.maximum(a, b), np.maximum(c, d)),
        e,
    )


_MEDIAN_NETWORKS = {1: lambda a: a, 3: _median3, 5: _median5}


def _collision_z(
    pair_prefix_cols: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    pairs_per_set: float,
) -> np.ndarray:
    """``z_I``: the median over the ``r`` sets of ``coll(S^i_I) / C(m, 2)``.

    An exact selection, bit-identical to ``np.median`` of the normalised
    per-set estimates along the set axis: the middle order statistic for
    odd ``r``, the mean of the two middle ones for even ``r``.  Dividing
    by the positive ``C(m, 2)`` is monotone, so selecting on the raw
    pair counts and normalising only the selected values picks the same
    bits.  ``r`` of 1, 3 or 5 runs a min/max network over one array per
    set; any other ``r`` partitions a sets-last ``(..., r)`` block.
    ``lo``/``hi`` may be any broadcastable index arrays.
    """
    sets = pair_prefix_cols.shape[1]
    network = _MEDIAN_NETWORKS.get(sets)
    if network is not None:
        counts = [pair_prefix_cols[hi, s] - pair_prefix_cols[lo, s] for s in range(sets)]
        return network(*counts) / pairs_per_set
    counts = pair_prefix_cols[hi] - pair_prefix_cols[lo]
    half = sets // 2
    if sets % 2:
        return np.partition(counts, half, axis=-1)[..., half] / pairs_per_set
    ordered = np.partition(counts, (half - 1, half), axis=-1)
    below = ordered[..., half - 1] / pairs_per_set
    return (below + ordered[..., half] / pairs_per_set) / 2


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

    The one scoring expression shared by the compile-time self-cost
    passes, the per-round remainder terms, and the cached segment costs.
    A single code path is what makes a cached score bit-identical to a
    fresh rescore — the invariant the engine relies on.  Entries are
    independent, so tabulating a sub-span of points, or a block of the
    triangle from broadcast ``lo``/``hi`` axes, yields the same bits as
    tabulating everything.
    """
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    lengths = (grid[hi] - grid[lo]).astype(np.float64)
    z = _collision_z(pair_prefix_cols, lo, hi, pairs_per_set)
    y = (weight_prefix[hi] - weight_prefix[lo]) / weight_total
    fitted = z - y * y / np.maximum(lengths, 1.0)
    return np.where(np.asarray(assigned), fitted, z)


def _pair_self_costs(
    candidates: CandidateSet,
    weight_prefix: np.ndarray,
    weight_total: float,
    pair_prefix_cols: np.ndarray,
    pairs_per_set: float,
    chunk_size: int = _SCORE_CHUNK,
) -> np.ndarray:
    """Round-invariant ``z_J - y_J^2/|J|`` per pair-list candidate (chunked)."""
    out = np.empty(candidates.size, dtype=np.float64)
    step = max(1, chunk_size // pair_prefix_cols.shape[1])
    for start in range(0, candidates.size, step):
        sl = slice(start, min(start + step, candidates.size))
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


def _triangle_self_costs(
    candidates: CandidateSet,
    weight_prefix: np.ndarray,
    weight_total: float,
    pair_prefix_cols: np.ndarray,
    pairs_per_set: float,
    chunk_size: int = _SCORE_CHUNK,
) -> np.ndarray:
    """The self-costs of a triangle as a dense row-major ``(K, K)`` matrix.

    Row blocks of about ``chunk_size`` per-set estimates broadcast the
    prefixes at the block's ``starts`` against ``stops`` from the
    block's first row on, so no per-candidate gather or pair list is
    ever built.  Cells below the diagonal (``j < i``, not candidates)
    hold ``+inf``.
    """
    starts, stops = candidates.starts, candidates.stops
    count = starts.size
    out = np.empty((count, count), dtype=np.float64)
    step = max(1, chunk_size // (count * pair_prefix_cols.shape[1]))
    for first in range(0, count, step):
        last = min(first + step, count)
        block = out[first:last, first:]
        block[...] = _piece_costs(
            candidates.grid,
            weight_prefix,
            weight_total,
            pair_prefix_cols,
            pairs_per_set,
            starts[first:last, None],
            stops[None, first:],
            True,
        )
        out[first:last, :first] = np.inf
        block[:, : last - first][np.tri(last - first, k=-1, dtype=bool)] = np.inf
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


def _score(
    out: np.ndarray,
    self_costs: np.ndarray,
    removed: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """``out = ((self - removed) + left) + right``, operands broadcast.

    The one arithmetic spelling of the incremental decomposition, shared
    by both ``rel`` stores: the float op order here is part of the
    byte-identity contract, so nobody spells it twice.
    """
    np.subtract(self_costs, removed, out=out)
    out += left
    out += right


class _PairStore:
    """``rel`` of a pair-list candidate set, as a flat vector.

    The store for ``max_candidates``-capped sets (arbitrary subsets of
    the triangle) and for snapshots written before the triangle form.
    Each round masks the candidates intersecting the dirty span, gathers
    their operands, scatters the new ``rel`` and repairs the minima of
    the touched argmin blocks.
    """

    def __init__(self, candidates: CandidateSet, self_costs: np.ndarray) -> None:
        self._cands = candidates
        self._lo = candidates.lo
        self._hi = candidates.hi
        self._self_cost = self_costs
        # ``rel`` lives padded to a whole number of argmin blocks (the
        # pad stays +inf forever) so block repair is one reshaped
        # ``min(axis=1)`` instead of a Python loop per touched block.
        self._block = _ARGMIN_BLOCK
        num_blocks = max(1, -(-candidates.size // self._block))
        rel_padded = np.full(num_blocks * self._block, np.inf)
        self.rel = rel_padded[: candidates.size]
        self._rel_blocks = rel_padded.reshape(num_blocks, self._block)
        self._block_min = np.full(num_blocks, np.inf)

    def rescore(
        self,
        lo: int,
        hi: int,
        seg_starts: np.ndarray,
        removed: np.ndarray,
        left_term: np.ndarray,
        right_term: np.ndarray,
    ) -> int:
        """Rescore the candidates overlapping grid span ``[lo, hi]``."""
        grid = self._cands.grid
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
            cand_lo = self._lo[part]
            cand_hi = self._hi[part]
            if per_point:
                ia, ib = ia_at[cand_lo], ib_at[cand_hi]
            else:
                ia = np.searchsorted(seg_starts, grid[cand_lo], side="right") - 1
                ib = np.searchsorted(seg_starts, grid[cand_hi] - 1, side="right") - 1
            rel = np.empty(part.size)
            _score(
                rel,
                self._self_cost[part],
                removed[ia, ib],
                left_term[cand_lo],
                right_term[cand_hi],
            )
            self.rel[part] = rel
        if dirty.size:
            self._repair_blocks(dirty)
        return int(dirty.size)

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
        within = self.rel[begin : begin + self._block]
        return begin + int(np.argmin(within))

    def endpoints(self, index: int) -> tuple[int, int]:
        """Grid-index ``(lo, hi)`` of candidate ``index``."""
        return int(self._lo[index]), int(self._hi[index])

    def value(self, index: int) -> np.float64:
        """Candidate ``index``'s current ``rel``."""
        return self.rel[index]


class _TriangleStore:
    """``rel`` of a triangle candidate set, as a dense ``(K, K)`` matrix.

    Row-major over the ``starts`` x ``stops`` axes with +inf below the
    diagonal, so candidate ``(i, j)``'s flat index is its row offset
    plus ``j - i``.  The candidates overlapping a dirty span are the
    rectangle ``rows < I1`` x ``cols >= J0`` of the axes (two
    ``searchsorted`` calls), rescored as contiguous row slices; the
    self-costs are +inf below the diagonal too, so a whole rectangle
    keeps those cells +inf.  Per-row minima make the argmin ``O(K)``.
    """

    def __init__(self, candidates: CandidateSet, self_costs: np.ndarray) -> None:
        self._starts = candidates.starts
        self._stops = candidates.stops
        self._start_at = candidates.grid[self._starts]
        self._stop_at = candidates.grid[self._stops]
        self._self_cost = self_costs
        self._offsets = candidates.row_offsets()
        count = self._starts.size
        self.rel = np.full((count, count), np.inf)
        self._row_min = np.full(count, np.inf)
        self._rows_per_block = max(1, _SCORE_CHUNK // count)

    def rescore(
        self,
        lo: int,
        hi: int,
        seg_starts: np.ndarray,
        removed: np.ndarray,
        left_term: np.ndarray,
        right_term: np.ndarray,
    ) -> int:
        """Rescore the candidates overlapping grid span ``[lo, hi]``."""
        count = self._starts.size
        rows = int(np.searchsorted(self._starts, hi, side="left"))
        first = int(np.searchsorted(self._stops, lo, side="right"))
        ia = np.searchsorted(seg_starts, self._start_at[:rows], side="right") - 1
        ib = np.searchsorted(seg_starts, self._stop_at[first:] - 1, side="right") - 1
        # removed[ia, ib] as whole rows of one (segments, columns) gather.
        removed_cols = removed[:, ib]
        left = left_term[self._starts[:rows], None]
        right = right_term[self._stops[first:]]
        for top in range(0, rows, self._rows_per_block):
            bottom = min(top + self._rows_per_block, rows)
            col = max(top, first)
            _score(
                self.rel[top:bottom, col:],
                self._self_cost[top:bottom, col:],
                removed_cols[ia[top:bottom], col - first :],
                left[top:bottom],
                right[col - first :],
            )
            self._row_min[top:bottom] = self.rel[top:bottom, top:].min(axis=1)
        # Upper-triangle cells of the rectangle: rows above ``first``
        # hold ``count - first`` each, row ``i >= first`` holds ``count - i``.
        full = min(rows, first)
        tail = rows - full
        return full * (count - first) + tail * count - tail * (full + rows - 1) // 2

    def argmin(self) -> int:
        """Global first-minimum: lowest row, then lowest column."""
        row = int(np.argmin(self._row_min))
        col = row + int(np.argmin(self.rel[row, row:]))
        return int(self._offsets[row]) + col - row

    def _cell(self, index: int) -> tuple[int, int]:
        row = int(np.searchsorted(self._offsets, index, side="right")) - 1
        return row, index - int(self._offsets[row]) + row

    def endpoints(self, index: int) -> tuple[int, int]:
        """Grid-index ``(lo, hi)`` of candidate ``index``."""
        row, col = self._cell(index)
        return int(self._starts[row]), int(self._stops[col])

    def value(self, index: int) -> np.float64:
        """Candidate ``index``'s current ``rel``."""
        return self.rel[self._cell(index)]


class _GreedyEngine:
    """Vectorised greedy rounds over cached, dirty-span-refreshed terms.

    State per candidate: ``rel_J`` (score minus the shared ``total``
    term), valid as of the last round that touched it, held by a store
    chosen from the candidate set's form — :class:`_TriangleStore` for
    a whole triangle, :class:`_PairStore` for a pair list.  State per
    grid point: the left/right remainder terms, valid as of the last
    round whose dirty span covered the point.  State per segment:
    grid-index endpoints, assignedness, and the cached piece cost.  A
    round is three phases — :meth:`rescore`, :meth:`argmin`,
    :meth:`commit` — which :meth:`run_round` chains.

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
        self._full_span = bool(full_span)
        store = _TriangleStore if candidates.is_triangle else _PairStore
        self._store = store(
            candidates, np.asarray(compiled.self_costs, dtype=np.float64)
        )

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
        unchanged — while the store looks ``ia``/``ib`` up afresh at the
        dirty candidates' endpoints, because segment *indices* shift
        globally when the segment list grows.  Returns how many
        candidates were rescored.
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

        return self._store.rescore(
            lo, hi, seg_starts, removed, self._left_term, self._right_term
        )

    def argmin(self) -> int:
        """The lowest-index candidate of minimal ``rel``."""
        return self._store.argmin()

    def commit(self, best: int, rescored: int) -> RoundReport:
        """Commit candidate ``best`` and report the round's diff."""
        # ``total`` is shared by every candidate this round; summed fresh
        # from the cached per-segment costs.
        total = float(np.sum(np.asarray(self._seg_cost, dtype=np.float64)))
        cost = float(total + self._store.value(best))
        lo, hi = self._store.endpoints(best)
        chosen = Interval(int(self._grid[lo]), int(self._grid[hi]))
        chosen_y = float(self._y(np.asarray([lo]), np.asarray([hi]))[0])
        neighbours = self._apply(lo, hi)
        return RoundReport(
            candidate_index=best,
            cost=cost,
            weight_estimate=chosen_y,
            chosen=chosen,
            value=chosen_y / chosen.length,
            neighbours=neighbours,
            rescored=rescored,
        )

    def _apply(self, lo: int, hi: int) -> list[tuple[Interval, float]]:
        """Commit grid span ``[lo, hi]``: truncate neighbours, insert it.

        Returns the re-added *assigned* remainders (left-to-right) with
        their re-estimated values, and records the dirty grid-index span
        — the full original extent of every segment this commit touched —
        for the next round's rescoring.
        """
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
        the ``r`` sets — which never changes across greedy rounds.  For
        a triangle candidate set, a dense row-major ``(K, K)`` matrix
        over the ``starts`` x ``stops`` axes with ``+inf`` below the
        diagonal; for a pair list, a flat vector in candidate order.
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
    An uncapped search is a triangle and compiles them as a dense matrix
    straight from the axes; a ``max_candidates`` cap that binds leaves a
    pair list, compiled as a flat vector.

    ``prefixes`` selects the prefix builder: ``"sorted"`` (the batched
    one-sort pass above) or ``"dense"`` — counting-based full-grid
    prefixes (:func:`repro.samples.collision.dense_interval_prefixes`)
    gathered at the candidate grid, plus a counting sort of the weight
    sample.  All arithmetic is exact integer math either way, so the two
    builders produce bit-identical compiled sketches; ``"dense"`` is the
    fleet compiler's choice when the domain is within a constant of the
    sample sizes.
    """
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if prefixes not in ("sorted", "dense"):
        raise InvalidParameterError(
            f"prefixes must be 'sorted' or 'dense', got {prefixes!r}"
        )
    if method == "fast":
        candidates = sample_endpoint_candidates(
            samples.weight_samples, n, max_candidates=max_candidates, rng=rng
        )
    else:
        candidates = all_interval_candidates(n)
        if max_candidates is not None:
            candidates = candidates.subsample(max_candidates, as_rng(rng))

    from repro.samples.collision import batched_pair_prefixes, dense_interval_prefixes
    from repro.samples.sample_set import SampleSet

    if prefixes == "dense":
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
    self_cost_pass = (
        _triangle_self_costs if candidates.is_triangle else _pair_self_costs
    )
    self_costs = self_cost_pass(
        candidates,
        weight_prefix.astype(np.float64),
        float(weight_set.size),
        pair_prefix_cols,
        pairs_per_set,
    )
    return CompiledGreedySketches(
        candidates,
        weight_set,
        weight_prefix,
        pair_prefix_cols,
        self_costs,
        pairs_per_set,
    )


def _pair_list_sketches(compiled: CompiledGreedySketches) -> CompiledGreedySketches:
    """``compiled`` with its triangle re-expressed as a pair list.

    Builds the explicit ``lo``/``hi`` arrays and the flat self-cost
    vector (through the pair-list pass, not by reading the matrix), so
    the engine runs the same candidates on its pair-list store: the seam
    the tests and the bench pair use to hold the two stores to each
    other.
    """
    candidates = CandidateSet(
        compiled.candidates.grid, compiled.candidates.lo, compiled.candidates.hi
    )
    self_costs = _pair_self_costs(
        candidates,
        np.asarray(compiled.weight_prefix).astype(np.float64),
        float(compiled.weight_set.size),
        compiled.pair_prefix_cols,
        compiled.pairs_per_set,
    )
    return replace(compiled, candidates=candidates, self_costs=self_costs)


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
    samples the learn is for; ``params.rounds`` is the run's round
    budget.
    """

    compiled: CompiledGreedySketches
    params: GreedyParams
    method: str
    n: int


def lockstep_learn(runs: "list[LockstepRun]") -> list[LearnResult]:
    """Drive each of ``runs`` through its greedy rounds.

    The one learn driver: every session, fleet and maintainer learn ends
    here.  Each run owns its engine and steps alone through its round
    budget, so every result is byte-identical to the full-span reference
    the tests compare against.
    """
    return _reference_learn(runs, full_span=False)


def _reference_learn(
    runs: "list[LockstepRun]", *, full_span: bool = True
) -> list[LearnResult]:
    """Drive each run alone through :meth:`_GreedyEngine.run_round`.

    The private reference the tests (and the out-of-core bench pair)
    hold :func:`lockstep_learn` to: with ``full_span`` every round
    re-tabulates every grid point and rescores every candidate.  It
    accepts :func:`lockstep_learn`'s arguments so it can stand in at a
    facade's driver seam.
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
) -> LearnResult:
    """Run the greedy rounds on already-drawn samples (no source access).

    This is the pure algorithmic half of :func:`learn_histogram`: given
    ``samples`` whose sizes match ``params`` it deterministically produces
    the same :class:`LearnResult` the one-shot entry point would.  Pass
    ``compiled`` (from :func:`compile_greedy_sketches` over the same
    samples) to skip the grid/prefix compilation.  The rounds run as a
    one-run :func:`lockstep_learn`.
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
        )
    run = LockstepRun(compiled=compiled, params=params, method=method, n=n)
    return lockstep_learn([run])[0]


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
