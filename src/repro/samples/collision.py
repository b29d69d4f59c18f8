"""Interval collision counting.

``coll(S_I) = sum_{i in I} C(occ(i, S_I), 2)`` counts sample pairs that
collide inside ``I`` (paper Section 2).  Because the count decomposes over
domain elements, a prefix sum over the distinct sample values answers any
interval query with two binary searches.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import validate_k
from repro.errors import InvalidParameterError
from repro.utils.prefix import pairs_count, prefix_sums


def collision_count(samples: np.ndarray) -> int:
    """``coll(S)`` of a raw sample array (naive reference form)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        return 0
    _, counts = np.unique(samples, return_counts=True)
    return int(pairs_count(counts).sum())


class CollisionSketch:
    """Prefix structure answering ``coll(S_I)`` and ``|S_I|`` per interval.

    Built once in ``O(m log m)`` from a sample array; every interval query
    afterwards costs two binary searches.  Compiles that need every
    endpoint at once build their prefixes with :func:`interval_prefixes`
    instead.
    """

    __slots__ = ("_values", "_count_prefix", "_pairs_prefix", "_size", "_n")

    def __init__(self, samples: np.ndarray, n: int) -> None:
        samples = np.asarray(samples, dtype=np.int64)
        if samples.ndim != 1:
            raise InvalidParameterError(
                f"samples must be a 1-d array, got shape {samples.shape}"
            )
        if samples.size and (samples.min() < 0 or samples.max() >= n):
            raise InvalidParameterError("samples contain values outside [0, n)")
        values, counts = np.unique(samples, return_counts=True)
        self._values = values
        self._count_prefix = prefix_sums(counts)
        self._pairs_prefix = prefix_sums(pairs_count(counts))
        self._size = int(samples.size)
        self._n = int(n)

    @property
    def size(self) -> int:
        """Total number of samples ``|S|``."""
        return self._size

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    @property
    def total_collisions(self) -> int:
        """``coll(S)`` over the whole domain."""
        return int(self._pairs_prefix[-1])

    def _locate(self, points: int | np.ndarray) -> np.ndarray:
        return np.searchsorted(self._values, points, side="left")

    def count(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> int | np.ndarray:
        """``|S_I|`` over half-open ``[starts, stops)`` (vectorised)."""
        result = self._count_prefix[self._locate(stops)] - self._count_prefix[
            self._locate(starts)
        ]
        if np.isscalar(starts) and np.isscalar(stops):
            return int(result)
        return result

    def collisions(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> int | np.ndarray:
        """``coll(S_I)`` over half-open ``[starts, stops)`` (vectorised)."""
        result = self._pairs_prefix[self._locate(stops)] - self._pairs_prefix[
            self._locate(starts)
        ]
        if np.isscalar(starts) and np.isscalar(stops):
            return int(result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CollisionSketch(size={self._size}, n={self._n})"


def _check_samples(samples: np.ndarray, n: int) -> None:
    """Reject a sample set that is not 1-d or holds values outside ``[0, n)``."""
    if samples.ndim != 1:
        raise InvalidParameterError(
            f"samples must be 1-d arrays, got shape {samples.shape}"
        )
    if samples.size and (samples.min() < 0 or samples.max() >= n):
        raise InvalidParameterError("samples contain values outside [0, n)")


def striped_sort(
    sample_sets: "list[np.ndarray] | tuple[np.ndarray, ...]",
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``r`` sets sorted once in stripes of one value space, with a pair prefix.

    Set ``i``'s samples are offset into their own ``[i * n, (i + 1) * n)``
    stripe and the concatenation is sorted once, so ``keys`` holds set
    0's samples in order, then set 1's, and so on.  ``pair_prefix[p]``
    counts the colliding pairs among ``keys[:p]``; at a position where a
    run of equal keys starts, which is where every left ``searchsorted``
    lands, that is the sum of ``C(c, 2)`` over the runs before it.  So for
    a query point ``i * n + x`` (``0 <= x <= n``), differences of
    ``searchsorted(keys, ...)`` are set ``i``'s hit counts and differences
    of ``pair_prefix`` there its collision pairs, in exact integers.

    Returns ``(keys, pair_prefix)``: int64 arrays of ``T`` and ``T + 1``
    entries for ``T`` samples in all.
    """
    sets = [np.asarray(s, dtype=np.int64) for s in sample_sets]
    for s in sets:
        _check_samples(s, n)
    keys = np.concatenate(
        [s + i * n for i, s in enumerate(sets)] or [np.zeros(0, dtype=np.int64)]
    )
    keys.sort()
    # A sample's rank inside its run of equal keys is the number of
    # earlier samples it collides with; the prefix is their running sum.
    positions = np.arange(keys.size, dtype=np.int64)
    run_start = np.where(
        np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size], positions, 0
    )
    np.maximum.accumulate(run_start, out=run_start)
    pair_prefix = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(positions - run_start, out=pair_prefix[1:])
    return keys, pair_prefix


def batched_interval_prefixes(
    sample_sets: "list[np.ndarray] | tuple[np.ndarray, ...]",
    n: int,
    grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Hit-count and pair-count prefixes of ``r`` sets on one grid, by sorting.

    The sparse-domain half of :func:`interval_prefixes`: the sets are
    sorted once into stripes (:func:`striped_sort`, which the sparse
    tester compile stores as it is) and all ``r * G`` grid queries
    resolve with one ``searchsorted``.

    Returns ``(count_rows, pair_rows)``, two C-contiguous ``(r, G)`` int64
    matrices whose row ``i`` holds set ``i``'s per-grid-point prefixes of
    ``|S^i_I|`` and ``coll(S^i_I)`` respectively.
    """
    # A query point past n would spill into the next set's stripe and
    # silently count its pairs; _grid_points rejects it.
    grid = _grid_points(grid, n)
    keys, pair_prefix = striped_sort(sample_sets, n)
    offsets = np.arange(len(sample_sets), dtype=np.int64) * n
    idx = np.searchsorted(keys, offsets[:, None] + grid[None, :])
    base_idx = np.searchsorted(keys, offsets)[:, None]
    return idx - base_idx, pair_prefix[idx] - pair_prefix[base_idx]


def dense_interval_prefixes(
    sample_sets: "list[np.ndarray] | tuple[np.ndarray, ...]",
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid hit/pair prefixes of ``r`` sets, built without sorting.

    The dense-domain half of :func:`interval_prefixes`.  Returns the
    same numbers :func:`batched_interval_prefixes` would for
    ``grid = arange(n + 1)`` — two ``(r, n + 1)`` int64 matrices whose
    row ``i`` holds set ``i``'s per-endpoint prefixes of ``|S^i_I|`` and
    ``coll(S^i_I)`` — but by counting (:func:`numpy.bincount` per set,
    touching each sample exactly once) followed by row cumsums.
    Counting is O(r (m + n)) versus the sort's O(r m log m).  All
    arithmetic is exact integer math, so the two passes are
    interchangeable bit for bit (the property tests pin this).
    """
    sets = [np.asarray(s, dtype=np.int64) for s in sample_sets]
    validate_k(n, name="n")
    if not sets:
        empty = np.zeros((0, n + 1), dtype=np.int64)
        return empty, empty.copy()
    counts = np.empty((len(sets), n), dtype=np.int64)
    for i, s in enumerate(sets):
        # Checked set by set, so each set is still cached for its count.
        _check_samples(s, n)
        counts[i] = np.bincount(s, minlength=n)
    pairs = counts * (counts - 1) // 2
    count_rows = np.zeros((len(sets), n + 1), dtype=np.int64)
    pair_rows = np.zeros((len(sets), n + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=count_rows[:, 1:])
    np.cumsum(pairs, axis=1, out=pair_rows[:, 1:])
    return count_rows, pair_rows


def interval_prefixes(
    sample_sets: "list[np.ndarray] | tuple[np.ndarray, ...]",
    n: int,
    grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hit-count and pair-count prefixes of ``r`` sets, for every compile.

    Every compile reads its ``|S^i_I|`` and ``coll(S^i_I)`` prefixes from
    here: a fleet member's tester layout (a session's is a one-member
    fleet's), and the learner's collision sets.  ``grid`` holds sorted query points in
    ``[0, n]``; the default is every endpoint ``0..n``.

    One rule picks the pass.  The default grid, every endpoint ``0..n``
    (every tester compile's), always counts with
    :func:`dense_interval_prefixes`: its output alone is ``r (n + 1)``
    values, and counting builds it in O(r (m + n)) where sorting pays a
    search per endpoint on top.  A sparser grid (the learner's
    candidates) counts when ``n + 1 <= 4 x`` the total sample count and
    otherwise sorts all sets once with :func:`batched_interval_prefixes`.
    Both are exact integer math, so the choice never shows in a result.

    Returns ``(count_rows, pair_rows)``, two C-contiguous ``(r, G)``
    int64 matrices whose row ``i`` holds set ``i``'s per-grid-point
    prefixes.
    """
    if grid is None:
        return dense_interval_prefixes(sample_sets, n)
    total = sum(np.asarray(s).size for s in sample_sets)
    if n + 1 > 4 * total:
        return batched_interval_prefixes(sample_sets, n, grid)
    count_rows, pair_rows = dense_interval_prefixes(sample_sets, n)
    grid = _grid_points(grid, n)
    return count_rows[:, grid], pair_rows[:, grid]


def _grid_points(grid: np.ndarray, n: int) -> np.ndarray:
    """``grid`` as int64 query points, each checked to lie in ``[0, n]``."""
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size and (grid.min() < 0 or grid.max() > n):
        raise InvalidParameterError("grid points must lie in [0, n]")
    return grid
