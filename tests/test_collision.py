"""Tests for repro.samples.collision."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.samples import collision
from repro.samples.collision import (
    CollisionSketch,
    batched_interval_prefixes,
    collision_count,
    dense_interval_prefixes,
    interval_prefixes,
)
from repro.utils.prefix import pairs_count


def sketch_prefixes(sets, n, grid):
    """Reference rows: each set's ``|S_I|`` and ``coll(S_I)`` over
    ``[0, g)`` for every grid point ``g``, from per-set sketches."""
    grid = np.asarray(grid, dtype=np.int64)
    origin = np.zeros_like(grid)
    sketches = [CollisionSketch(s, n) for s in sets]
    counts = np.stack([np.asarray(k.count(origin, grid)) for k in sketches])
    pairs = np.stack([np.asarray(k.collisions(origin, grid)) for k in sketches])
    return counts, pairs


def naive_collisions(samples, a, b):
    """O(m^2) reference: pairs of equal samples falling in [a, b)."""
    inside = [s for s in samples if a <= s < b]
    return sum(
        1
        for i in range(len(inside))
        for j in range(i + 1, len(inside))
        if inside[i] == inside[j]
    )


class TestCollisionCount:
    def test_no_duplicates(self):
        assert collision_count(np.array([1, 2, 3])) == 0

    def test_all_equal(self):
        assert collision_count(np.array([7, 7, 7, 7])) == 6

    def test_mixed(self):
        assert collision_count(np.array([1, 1, 2, 2, 2])) == 1 + 3

    def test_empty(self):
        assert collision_count(np.array([], dtype=np.int64)) == 0

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=50))
    def test_matches_naive(self, values):
        samples = np.array(values, dtype=np.int64)
        assert collision_count(samples) == naive_collisions(values, 0, 10)


class TestCollisionSketch:
    def test_total(self):
        sketch = CollisionSketch(np.array([1, 1, 2, 2, 2]), 5)
        assert sketch.total_collisions == 4
        assert sketch.size == 5

    def test_interval_queries(self):
        samples = np.array([0, 0, 1, 3, 3, 3])
        sketch = CollisionSketch(samples, 5)
        assert sketch.collisions(0, 2) == 1
        assert sketch.collisions(3, 5) == 3
        assert sketch.collisions(1, 3) == 0
        assert sketch.count(0, 2) == 3

    def test_vectorised_queries(self):
        samples = np.array([0, 0, 1, 3, 3, 3])
        sketch = CollisionSketch(samples, 5)
        coll = sketch.collisions(np.array([0, 3]), np.array([2, 5]))
        assert np.array_equal(coll, [1, 3])

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidParameterError):
            CollisionSketch(np.array([9]), 5)

    @given(
        st.lists(st.integers(min_value=0, max_value=11), max_size=60),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_naive(self, values, a, b):
        a, b = min(a, b), max(a, b)
        sketch = CollisionSketch(np.array(values, dtype=np.int64), 12)
        assert sketch.collisions(a, b) == naive_collisions(values, a, b)
        assert sketch.count(a, b) == sum(1 for v in values if a <= v < b)

    def test_grid_prefixes(self):
        samples = np.array([0, 0, 1, 3, 3, 3, 7])
        sketch = CollisionSketch(samples, 8)
        grid = np.array([0, 2, 4, 8])
        (counts,), (pairs,) = interval_prefixes([samples], 8, grid)
        assert pairs[1] - pairs[0] == sketch.collisions(0, 2)
        assert pairs[2] - pairs[1] == sketch.collisions(2, 4)
        assert pairs[3] - pairs[2] == sketch.collisions(4, 8)
        assert counts[3] - counts[0] == 7

    def test_pairs_never_negative(self, rng):
        samples = rng.integers(0, 100, size=1000)
        sketch = CollisionSketch(samples, 100)
        starts = rng.integers(0, 50, size=20)
        stops = starts + rng.integers(1, 50, size=20)
        assert np.all(np.asarray(sketch.collisions(starts, stops)) >= 0)


class TestBatchedPrefixes:
    """The one-sort pass must equal r per-set sketches at every grid point."""

    def test_matches_per_set_sketches(self, rng):
        n = 50
        sets = [rng.integers(0, n, size=size) for size in (0, 1, 40, 200)]
        grid = np.unique(
            np.concatenate([[0, n], rng.integers(0, n + 1, size=12)])
        )
        counts, pairs = batched_interval_prefixes(sets, n, grid)
        ref_counts, ref_pairs = sketch_prefixes(sets, n, grid)
        assert pairs.dtype == np.int64
        assert counts.flags.c_contiguous and pairs.flags.c_contiguous
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(pairs, ref_pairs)

    def test_no_sets(self):
        counts, pairs = batched_interval_prefixes([], 10, np.array([0, 10]))
        assert counts.shape == pairs.shape == (0, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            batched_interval_prefixes([np.array([5])], 5, np.array([0, 5]))

    def test_grid_beyond_domain_rejected(self):
        """A grid point past n would read the next set's stripe (sorting)
        or wrap around (counting); both passes refuse it."""
        sets = [np.array([1, 1, 2]), np.array([3, 3, 3])]
        with pytest.raises(InvalidParameterError):
            batched_interval_prefixes(sets, 10, np.array([0, 5, 15]))
        for grid in ([0, 5, 15], [-1, 5]):
            with pytest.raises(InvalidParameterError):
                interval_prefixes(sets, 4, np.array(grid))

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=30),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_per_set_property(self, raw_sets):
        n = 8
        sets = [np.array(s, dtype=np.int64) for s in raw_sets]
        grid = np.arange(n + 1)
        counts, pairs = batched_interval_prefixes(sets, n, grid)
        ref_counts, ref_pairs = sketch_prefixes(sets, n, grid)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(pairs, ref_pairs)


@st.composite
def adversarial_set_batches(draw):
    """(n, sets) with the shapes that break naive prefix code.

    Single-point domains, empty sets, all-mass-on-one-bucket sets, and
    arbitrary multisets mix freely — the interchange contract between
    the counting and sort passes must hold on all of them.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    def one_set(kind_and_seed):
        kind, value, size, arbitrary = kind_and_seed
        if kind == "empty":
            return []
        if kind == "one-bucket":
            return [value % n] * size
        return [v % n for v in arbitrary]
    kinds = st.tuples(
        st.sampled_from(["empty", "one-bucket", "arbitrary"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=1, max_value=25),
        st.lists(st.integers(min_value=0, max_value=11), max_size=30),
    ).map(one_set)
    sets = draw(st.lists(kinds, min_size=1, max_size=4))
    return n, [np.array(s, dtype=np.int64) for s in sets]


class TestDenseVsSortProperty:
    """Counting must equal the sort path bit for bit, and so must
    interval_prefixes on either side of its count-or-sort rule (the full
    grid always counts; a sparse grid counts while n + 1 <= 4 x total).

    Whole tester and learner runs exercise the interchange only
    indirectly; this pins it at the prefix level, on adversarial
    shapes, for both the count and pair rows.
    """

    @given(adversarial_set_batches(), st.data())
    def test_dense_equals_sort_path(self, batch, data):
        n, sets = batch
        grid = np.arange(n + 1, dtype=np.int64)
        dense_counts, dense_pairs = dense_interval_prefixes(sets, n)
        sort_counts, sort_pairs = batched_interval_prefixes(sets, n, grid)
        assert dense_counts.dtype == sort_counts.dtype == np.int64
        assert np.array_equal(dense_counts, sort_counts)
        assert np.array_equal(dense_pairs, sort_pairs)
        # The same sets over wider domains: the largest where a sparse grid
        # still counts (n + 1 == 4 x total, the boundary) and the smallest
        # where it sorts; the full grid counts on every one.
        total = sum(s.size for s in sets)
        domains = {n, max(n, 4 * total)}
        if total:
            domains.add(max(n, 4 * total - 1))
        for domain in sorted(domains):
            points = data.draw(st.lists(st.integers(0, domain), max_size=8))
            for sub_grid in (None, np.unique(np.array(points, dtype=np.int64))):
                query = np.arange(domain + 1) if sub_grid is None else sub_grid
                with mock.patch.object(
                    collision,
                    "dense_interval_prefixes",
                    wraps=dense_interval_prefixes,
                ) as counting:
                    counts, pairs = interval_prefixes(sets, domain, sub_grid)
                assert counting.called == (
                    sub_grid is None or domain + 1 <= 4 * total
                )
                ref_counts, ref_pairs = batched_interval_prefixes(sets, domain, query)
                assert counts.dtype == pairs.dtype == np.int64
                assert np.array_equal(counts, ref_counts)
                assert np.array_equal(pairs, ref_pairs)

    def test_single_point_domain(self):
        counts, pairs = dense_interval_prefixes(
            [np.zeros(9, dtype=np.int64), np.zeros(0, dtype=np.int64)], 1
        )
        ref = batched_interval_prefixes(
            [np.zeros(9, dtype=np.int64), np.zeros(0, dtype=np.int64)],
            1,
            np.array([0, 1]),
        )
        assert np.array_equal(counts, ref[0])
        assert np.array_equal(pairs, ref[1])
        assert pairs[0, 1] == pairs_count(9)

    def test_all_mass_on_one_bucket(self):
        sets = [np.full(50, 3, dtype=np.int64)]
        counts, pairs = dense_interval_prefixes(sets, 8)
        ref = batched_interval_prefixes(sets, 8, np.arange(9))
        assert np.array_equal(counts, ref[0])
        assert np.array_equal(pairs, ref[1])


class TestScaling:
    def test_large_counts_exact(self):
        """int64 exactness for ~10^6 identical samples."""
        samples = np.zeros(1_000_000, dtype=np.int64)
        sketch = CollisionSketch(samples, 4)
        assert sketch.total_collisions == pairs_count(1_000_000)
