"""Tests for repro.core.candidates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.candidates import (
    CandidateSet,
    all_interval_candidates,
    sample_endpoint_candidates,
)
from repro.errors import InvalidParameterError


class TestAllIntervals:
    def test_count_is_n_choose_2_plus_n(self):
        """All non-empty [a, b) with 0 <= a < b <= n: C(n+1, 2) of them."""
        cands = all_interval_candidates(5)
        assert cands.size == 6 * 5 // 2

    def test_covers_every_interval(self):
        cands = all_interval_candidates(4)
        pairs = {
            (int(cands.grid[lo]), int(cands.grid[hi]))
            for lo, hi in zip(cands.lo, cands.hi)
        }
        expected = {(a, b) for a in range(5) for b in range(a + 1, 5)}
        assert pairs == expected

    def test_invalid_n_raises(self):
        with pytest.raises(InvalidParameterError):
            all_interval_candidates(0)


class TestSampleEndpoints:
    def test_t_prime_construction(self):
        """T' = T union (T +- 1) clipped to the domain."""
        cands = sample_endpoint_candidates(np.array([3, 3, 7]), 10)
        starts = {int(cands.grid[lo]) for lo in cands.lo}
        assert starts == {2, 3, 4, 6, 7, 8}

    def test_candidates_are_closed_pairs(self):
        """Every [a, b+1) with a <= b from T' appears exactly once."""
        samples = np.array([2])
        cands = sample_endpoint_candidates(samples, 5)
        pairs = {
            (int(cands.grid[lo]), int(cands.grid[hi]))
            for lo, hi in zip(cands.lo, cands.hi)
        }
        t_prime = [1, 2, 3]
        expected = {
            (a, b + 1) for a in t_prime for b in t_prime if b >= a
        }
        assert pairs == expected

    def test_boundary_clipping(self):
        cands = sample_endpoint_candidates(np.array([0, 9]), 10)
        points = {int(cands.grid[i]) for i in cands.lo}
        assert 0 in points
        assert max(int(cands.grid[i]) for i in cands.hi) == 10

    def test_size_quadratic_in_distinct_values(self):
        samples = np.array([10, 20, 30])
        cands = sample_endpoint_candidates(samples, 100)
        t_prime_size = 9  # 3 values x 3 neighbours, all distinct
        assert cands.size == t_prime_size * (t_prime_size + 1) // 2

    def test_empty_samples_raise(self):
        with pytest.raises(InvalidParameterError):
            sample_endpoint_candidates(np.array([], dtype=np.int64), 10)

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidParameterError):
            sample_endpoint_candidates(np.array([10]), 10)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_nonpositive_cap_rejected_before_drawing(self, cap):
        with pytest.raises(InvalidParameterError, match="max_candidates"):
            sample_endpoint_candidates(np.arange(10), 20, max_candidates=cap)

    def test_uncapped_set_is_a_triangle(self):
        """Row-major ``(i, j >= i)`` over the axes T' and T' + 1: the
        on-demand pair list is the historical ``triu_indices`` order."""
        cands = sample_endpoint_candidates(np.array([3, 3, 7]), 10)
        assert cands.is_triangle
        t_prime = np.array([2, 3, 4, 6, 7, 8])
        i, j = np.triu_indices(t_prime.size)
        assert np.array_equal(cands.grid[cands.lo], t_prime[i])
        assert np.array_equal(cands.grid[cands.hi], t_prime[j] + 1)
        assert cands.size == i.size

    @given(
        count=st.integers(min_value=1, max_value=40),
        cap=st.integers(min_value=1, max_value=900),
    )
    def test_capped_triangle_matches_subsampled_pair_list(self, count, cap):
        """Capping a triangle inverts the kept flat positions
        arithmetically: the same candidates as subsampling the
        materialised pair list, and the same again on every call."""
        grid = np.arange(count + 1, dtype=np.int64)
        triangle = CandidateSet.triangle(grid, grid[:-1], grid[1:])
        pairs = CandidateSet(grid, triangle.lo, triangle.hi)
        capped, reference = triangle.subsample(cap), pairs.subsample(cap)
        assert np.array_equal(capped.lo, reference.lo)
        assert np.array_equal(capped.hi, reference.hi)
        again = triangle.subsample(cap)
        assert np.array_equal(again.lo, capped.lo)
        assert np.array_equal(again.hi, capped.hi)
        assert capped.is_triangle == (cap >= triangle.size)

    @given(
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=20)
    )
    def test_all_candidates_valid(self, values):
        cands = sample_endpoint_candidates(np.array(values), 30)
        assert np.all(cands.grid[cands.hi] > cands.grid[cands.lo])
        assert cands.grid[0] == 0 and cands.grid[-1] == 30

    @given(
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=20)
    )
    def test_fast_candidates_subset_of_all(self, values):
        fast = sample_endpoint_candidates(np.array(values), 30)
        fast_pairs = {
            (int(fast.grid[lo]), int(fast.grid[hi]))
            for lo, hi in zip(fast.lo, fast.hi)
        }
        all_pairs = {(a, b) for a in range(31) for b in range(a + 1, 31)}
        assert fast_pairs <= all_pairs


class TestCandidateSet:
    def test_subsample_caps_size(self):
        cands = all_interval_candidates(20)
        small = cands.subsample(10)
        assert small.size == 10
        assert np.array_equal(small.grid, cands.grid)

    def test_subsample_noop_when_small(self):
        cands = all_interval_candidates(4)
        assert cands.subsample(1000) is cands

    def test_subsample_invalid(self):
        with pytest.raises(InvalidParameterError):
            all_interval_candidates(4).subsample(0)

    def test_locate(self):
        cands = all_interval_candidates(5)
        assert np.array_equal(cands.locate(np.array([0, 3, 5])), [0, 3, 5])

    def test_locate_off_grid_raises(self):
        cands = sample_endpoint_candidates(np.array([5]), 100)
        with pytest.raises(InvalidParameterError):
            cands.locate(np.array([50]))

    def test_mismatched_lo_hi_raise(self):
        grid = np.array([0, 5, 10])
        with pytest.raises(InvalidParameterError):
            CandidateSet(grid, np.array([0]), np.array([1, 2]))

    def test_empty_interval_raises(self):
        grid = np.array([0, 5, 10])
        with pytest.raises(InvalidParameterError):
            CandidateSet(grid, np.array([1]), np.array([1]))

    @pytest.mark.parametrize(
        "starts, stops",
        [([0, 1], [1]), ([1, 0], [2, 3]), ([0, 1], [1, 1]), ([1], [1])],
    )
    def test_malformed_triangle_axes_raise(self, starts, stops):
        grid = np.array([0, 5, 10, 15])
        with pytest.raises(InvalidParameterError):
            CandidateSet.triangle(grid, np.array(starts), np.array(stops))
