"""Mergeable sharded sketches: one sample set held as sorted shards.

Every sketch in this library reduces to *prefix statistics over a sorted
sample multiset* — hit counts ``|S_I|`` and pair counts ``coll(S_I)``
read off prefix arrays.  Both statistics are associative over disjoint
sub-multisets: the hit prefix of a union is the sum of per-part hit
prefixes, and pair counts depend only on per-value occurrence totals,
which also just add.  :class:`ShardedSketch` exploits that: one logical
sample set is held as ``S`` independently *sorted shard buffers*, and

* :meth:`merge` reconstructs the monolithic sorted array (a k-way merge
  of sorted runs — ``np.sort(kind="stable")`` over the concatenation,
  whose mergesort detects the pre-sorted runs),
* :meth:`count_prefix_on_grid` answers hit prefixes as exact integer
  sums of per-shard binary searches,
* :meth:`merge_prefixes` produces the hit/pair prefix rows the compiled
  engines consume — per-shard run-length counts combined across shards
  (sparse regime) or per-shard bincounts summed (dense regime).

Because every combination step is exact ``int64`` arithmetic, the rows
are **bit-equal** to both the monolithic sort path
(:meth:`repro.samples.collision.CollisionSketch.prefixes_on_grid`, the
one-sort :func:`~repro.samples.collision.batched_interval_prefixes`) and
the counting path
(:func:`~repro.samples.collision.dense_interval_prefixes`) for any shard
count.  Sharding therefore never changes a prefix row; it only changes
how much of the data must be sorted at once.  The session, fleet and
service compiles do not use this module: they sort each sample set in
one piece, which holds one copy fewer than merging shards.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.prefix import pairs_count, prefix_sums

__all__ = [
    "ShardedSketch",
    "shard_chunks",
    "combine_shard_parts",
    "combine_dense_parts",
    "compile_shard_part",
    "compile_shard_part_dense",
    "sharded_interval_prefixes",
]


def shard_chunks(values: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Split a raw sample array into ``num_shards`` contiguous chunks.

    Chunk boundaries are deterministic (``np.array_split`` semantics:
    earlier chunks get the remainder), so the same array always shards
    the same way — part of what keeps sharded runs replayable.  The
    chunks are views; nothing is copied or sorted here.
    """
    if int(num_shards) != num_shards or num_shards < 1:
        raise InvalidParameterError(
            f"num_shards must be a positive integer, got {num_shards!r}"
        )
    values = np.asarray(values)
    if values.ndim != 1:
        raise InvalidParameterError(
            f"samples must be a 1-d array, got shape {values.shape}"
        )
    return np.array_split(values, int(num_shards))


def compile_shard_part(
    chunk: np.ndarray, n: int, grid: np.ndarray | None
) -> tuple:
    """Sort one raw shard and summarise it for cross-shard combination.

    Returns ``(count_at_grid, values, counts)``: the shard's hit-count
    prefix at each grid point plus its run-length (value, occurrence)
    summary.  This is the per-shard unit of work
    :func:`sharded_interval_prefixes` maps over — each task sorts only
    its chunk and returns only this small summary.

    ``grid=None`` skips the hit-count side entirely (``count_at_grid``
    is then ``None``): pair-only consumers neither ship the grid to the
    task nor pay for prefix rows they would discard.
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    if chunk.size and (chunk.min() < 0 or chunk.max() >= n):
        raise InvalidParameterError("samples contain values outside [0, n)")
    ordered = np.sort(chunk)
    if grid is None:
        count_at_grid = None
    else:
        count_at_grid = np.searchsorted(
            ordered, np.asarray(grid), side="left"
        ).astype(np.int64, copy=False)
    values, counts = _run_lengths(ordered)
    return count_at_grid, values, counts


def compile_shard_part_dense(chunk: np.ndarray, n: int) -> np.ndarray:
    """One shard's per-value occurrence counts (the dense-regime part).

    A plain ``bincount`` over the domain; per-shard counts sum exactly
    to the monolithic counts, which is the cross-shard combination the
    dense prefix builder rides (see
    :func:`~repro.samples.collision.dense_interval_prefixes`).
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    if chunk.size and (chunk.min() < 0 or chunk.max() >= n):
        raise InvalidParameterError("samples contain values outside [0, n)")
    return np.bincount(chunk, minlength=n).astype(np.int64, copy=False)


def combine_shard_parts(
    parts: "list[tuple]", grid: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """Hit/pair prefix rows of one logical set from its shard parts.

    ``parts`` are :func:`compile_shard_part` outputs.  Hit prefixes add
    directly; pair prefixes need per-value occurrence *totals* first
    (pairs are quadratic in the count), so the per-shard run-length
    summaries are merged — values stably sorted, duplicate values'
    counts summed — before ``C(count, 2)`` is prefixed.  All int64, so
    the result is bit-equal to sketching the merged multiset.  Parts
    built without a grid (pair-only tasks) yield ``count_row = None``.
    """
    grid = np.asarray(grid)
    if any(count_at_grid is None for count_at_grid, _, _ in parts):
        count_row = None
    else:
        count_row = np.zeros(grid.shape[0], dtype=np.int64)
        for count_at_grid, _, _ in parts:
            count_row += count_at_grid
    values, counts = _merge_value_counts(
        [(v, c) for _, v, c in parts]
    )
    pair_prefix = prefix_sums(pairs_count(counts))
    idx = np.searchsorted(values, grid, side="left")
    pair_row = pair_prefix[idx].astype(np.int64, copy=False)
    return count_row, pair_row


def combine_dense_parts(
    parts: "list[np.ndarray]", grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hit/pair prefix rows of one set from its dense (bincount) parts.

    Per-shard occurrence counts sum to the multiset's totals; the hit
    and pair prefixes then follow by exact cumulative sums, gathered at
    the grid.  Bit-equal to the sparse combination and to
    :func:`~repro.samples.collision.dense_interval_prefixes`.
    """
    grid = np.asarray(grid)
    counts = parts[0].copy()
    for part in parts[1:]:
        counts += part
    count_row = prefix_sums(counts)[grid].astype(np.int64, copy=False)
    pair_row = prefix_sums(pairs_count(counts))[grid].astype(np.int64, copy=False)
    return count_row, pair_row


def _sparse_shard_task(args: tuple) -> tuple:
    """Mapper task: sort one chunk, summarise it (sparse regime)."""
    chunk, n, grid = args
    return compile_shard_part(chunk, n, grid)


def _dense_shard_task(args: tuple) -> np.ndarray:
    """Mapper task: bincount one chunk (dense regime)."""
    chunk, n = args
    return compile_shard_part_dense(chunk, n)


def sharded_interval_prefixes(
    sample_sets: "list[np.ndarray] | tuple[np.ndarray, ...]",
    n: int,
    grid: np.ndarray,
    *,
    num_shards: int = 1,
    mapper=None,
    dense: bool | None = None,
    counts: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Hit/pair prefix rows of ``r`` sets, built from shard parts.

    The shard-mergeable counterpart of
    :func:`repro.samples.collision.batched_interval_prefixes` (and, at
    ``grid = arange(n + 1)``, of
    :func:`~repro.samples.collision.dense_interval_prefixes`): every set
    is split into ``num_shards`` contiguous chunks, each chunk is
    summarised independently by ``mapper`` (an order-preserving
    ``map(fn, tasks) -> list``; a plain loop when ``None``) — and the
    per-set rows are combined by exact integer arithmetic.  Only
    the ``(r, G)`` output rows are ever materialised whole.

    ``dense`` selects the per-shard summary: bincount parts (the fleet
    regime, domain within a constant of the sample count) or sorted
    run-length parts; ``None`` applies the same guard the compile paths
    use.  Either way the rows are bit-equal to the monolithic builders
    for any shard count.

    ``counts=False`` returns ``(None, pair_rows)`` and, on the sparse
    path, neither ships the grid to the shard tasks nor computes the
    hit rows at all — the shape pair-only consumers want.
    """
    sets = [np.asarray(s, dtype=np.int64) for s in sample_sets]
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size and (grid.min() < 0 or grid.max() > n):
        raise InvalidParameterError("grid points must lie in [0, n]")
    if not sets:
        empty = np.zeros((0, grid.size), dtype=np.int64)
        return (empty.copy() if counts else None), empty
    if dense is None:
        total = sum(s.shape[0] for s in sets)
        dense = n + 1 <= 4 * total
    if mapper is None:
        mapper = lambda fn, tasks: [fn(task) for task in tasks]  # noqa: E731
    chunked = [shard_chunks(s, num_shards) for s in sets]
    if dense:
        tasks = [(chunk, n) for chunks in chunked for chunk in chunks]
        parts = mapper(_dense_shard_task, tasks)
    else:
        task_grid = grid if counts else None
        tasks = [(chunk, n, task_grid) for chunks in chunked for chunk in chunks]
        parts = mapper(_sparse_shard_task, tasks)
    count_rows = (
        np.empty((len(sets), grid.size), dtype=np.int64) if counts else None
    )
    pair_rows = np.empty((len(sets), grid.size), dtype=np.int64)
    for i, chunks in enumerate(chunked):
        set_parts = parts[i * len(chunks) : (i + 1) * len(chunks)]
        if dense:
            count_row, pair_rows[i] = combine_dense_parts(set_parts, grid)
        else:
            count_row, pair_rows[i] = combine_shard_parts(set_parts, grid)
        if counts:
            count_rows[i] = count_row
    if counts:
        return np.ascontiguousarray(count_rows), np.ascontiguousarray(pair_rows)
    return None, np.ascontiguousarray(pair_rows)


def _run_lengths(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, occurrence counts) of one sorted array."""
    if sorted_values.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    boundaries = np.nonzero(
        np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    )[0]
    values = sorted_values[boundaries]
    counts = np.diff(np.concatenate((boundaries, [sorted_values.size])))
    return values, counts


def _merge_value_counts(
    summaries: "list[tuple[np.ndarray, np.ndarray]]",
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-shard (values, counts) into the multiset's totals.

    Equivalent to ``np.unique(merged, return_counts=True)`` without ever
    materialising the merged multiset — the cross-shard step of the
    sparse pair-count path.
    """
    if not summaries:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    values = np.concatenate([v for v, _ in summaries])
    counts = np.concatenate([c for _, c in summaries])
    if values.size == 0:
        return values, counts
    order = np.argsort(values, kind="stable")
    values = values[order]
    counts = counts[order]
    boundaries = np.nonzero(np.concatenate(([True], values[1:] != values[:-1])))[0]
    return values[boundaries], np.add.reduceat(counts, boundaries)


class ShardedSketch:
    """One logical sample multiset held as per-shard sorted buffers.

    Parameters
    ----------
    shards:
        The shard buffers.  With ``presorted=False`` (default) each is
        sorted on construction; with ``presorted=True`` the caller
        vouches each buffer is already non-decreasing (checked, O(m)).
    n:
        Domain size (used for validation).
    """

    __slots__ = ("_shards", "_n", "_size")

    def __init__(
        self,
        shards: "list[np.ndarray]",
        n: int,
        *,
        presorted: bool = False,
    ) -> None:
        if not shards:
            raise InvalidParameterError("ShardedSketch needs at least one shard")
        normalised = []
        for shard in shards:
            shard = np.asarray(shard, dtype=np.int64)
            if shard.ndim != 1:
                raise InvalidParameterError(
                    f"shards must be 1-d arrays, got shape {shard.shape}"
                )
            if shard.size and (shard.min() < 0 or shard.max() >= n):
                raise InvalidParameterError("samples contain values outside [0, n)")
            if presorted:
                if shard.size and np.any(shard[1:] < shard[:-1]):
                    raise InvalidParameterError(
                        "presorted shards must be non-decreasing"
                    )
                shard = shard.copy()
            else:
                shard = np.sort(shard)
            shard.flags.writeable = False
            normalised.append(shard)
        self._shards = normalised
        self._n = int(n)
        self._size = int(sum(shard.shape[0] for shard in normalised))

    @classmethod
    def from_array(
        cls, values: np.ndarray, n: int, num_shards: int
    ) -> "ShardedSketch":
        """Shard a raw sample array into ``num_shards`` sorted buffers."""
        return cls(shard_chunks(values, num_shards), n)

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    @property
    def size(self) -> int:
        """Total number of samples across all shards."""
        return self._size

    @property
    def num_shards(self) -> int:
        """Number of shard buffers ``S``."""
        return len(self._shards)

    @property
    def shards(self) -> "list[np.ndarray]":
        """The sorted shard buffers (read-only views)."""
        return list(self._shards)

    def merge(self) -> np.ndarray:
        """The monolithic sorted sample array (k-way merge of the shards).

        ``np.sort(kind="stable")`` over the concatenation is numpy's
        merge of pre-sorted runs; the output is the canonical sorted
        multiset, bit-equal to sorting the unsharded array.
        """
        if len(self._shards) == 1:
            return self._shards[0].copy()
        merged = np.concatenate(self._shards)
        merged.sort(kind="stable")
        return merged

    def count_prefix_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Hit-count prefixes at each grid point, summed across shards.

        Exact integer sums of per-shard binary searches — bit-equal to
        :meth:`repro.samples.sample_set.SampleSet.count_prefix_on_grid`
        over the merged multiset.
        """
        grid = np.asarray(grid)
        out = np.zeros(grid.shape[0], dtype=np.int64)
        for shard in self._shards:
            out += np.searchsorted(shard, grid, side="left")
        return out

    def merge_prefixes(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hit and pair prefix rows on a sorted point grid.

        The rows are what the compiled engines gather from — bit-equal
        to :meth:`repro.samples.collision.CollisionSketch.prefixes_on_grid`
        over the merged multiset, for any shard count.
        """
        parts = [
            (
                np.searchsorted(shard, np.asarray(grid), side="left").astype(
                    np.int64, copy=False
                ),
            )
            + _run_lengths(shard)
            for shard in self._shards
        ]
        return combine_shard_parts(parts, grid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedSketch(size={self._size}, shards={self.num_shards}, "
            f"n={self._n})"
        )
