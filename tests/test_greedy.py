"""Tests for repro.core.greedy (Algorithm 1 / Theorem 2).

Learning-guarantee tests run at reduced ``scale``; the paper's additive
bounds (5 eps / 8 eps) hold with enormous slack at these sizes, so the
assertions check much tighter empirical budgets than the theorems require.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import HistogramSession
from repro.baselines.voptimal import voptimal_cost
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.distributions.distances import l2_distance_squared
from repro.errors import InvalidParameterError


SMALL = dict(scale=0.05, rng=17)


@pytest.fixture(scope="module")
def learned_fast():
    dist = families.random_tiling_histogram(128, 4, rng=7, min_piece=4)
    result = HistogramSession(dist, 128, method="fast", **SMALL).learn(4, 0.25)
    return dist, result


@pytest.fixture(scope="module")
def learned_exhaustive():
    dist = families.random_tiling_histogram(128, 4, rng=7, min_piece=4)
    result = HistogramSession(dist, 128, method="exhaustive", **SMALL).learn(4, 0.25)
    return dist, result


class TestLearningGuarantee:
    def test_theorem1_bound_exhaustive(self, learned_exhaustive):
        dist, result = learned_exhaustive
        err = l2_distance_squared(dist, result.histogram)
        opt = voptimal_cost(dist.pmf, 4, norm="l2")
        assert err - opt <= 5 * 0.25

    def test_theorem2_bound_fast(self, learned_fast):
        dist, result = learned_fast
        err = l2_distance_squared(dist, result.histogram)
        opt = voptimal_cost(dist.pmf, 4, norm="l2")
        assert err - opt <= 8 * 0.25

    def test_excess_error_small_in_practice(self, learned_fast):
        """At these sizes the excess is orders of magnitude below 8 eps."""
        dist, result = learned_fast
        err = l2_distance_squared(dist, result.histogram)
        assert err <= 0.01

    def test_learns_zipf(self):
        """Non-histogram input: error approaches the k-histogram optimum."""
        dist = families.zipf(128, 1.0)
        result = HistogramSession(dist, 128, method="fast", **SMALL).learn(6, 0.25)
        err = l2_distance_squared(dist, result.histogram)
        opt = voptimal_cost(dist.pmf, 6, norm="l2")
        assert err <= opt + 0.005

    def test_learns_two_level(self):
        dist = families.two_level(128, heavy_start=32, heavy_length=16)
        result = HistogramSession(dist, 128, method="fast", **SMALL).learn(4, 0.25)
        assert l2_distance_squared(dist, result.histogram) <= 0.01


class TestOutputStructure:
    def test_histogram_covers_domain(self, learned_fast):
        _, result = learned_fast
        assert result.histogram.n == 128
        assert result.histogram.boundaries[0] == 0
        assert result.histogram.boundaries[-1] == 128

    def test_round_trace_length(self, learned_fast):
        _, result = learned_fast
        assert len(result.rounds) == result.params.rounds

    def test_priority_log_matches_tiling(self, learned_fast):
        """The paper's priority representation flattens to the engine state."""
        _, result = learned_fast
        assert np.allclose(
            result.priority_histogram.to_pmf(), result.histogram.to_pmf()
        )

    def test_priority_log_piece_budget(self, learned_fast):
        """Each round adds the chosen interval plus at most 2 neighbours."""
        _, result = learned_fast
        assert result.priority_histogram.num_pieces <= 3 * result.params.rounds

    def test_estimated_cost_non_increasing(self, learned_fast):
        """Greedy cost estimates never increase across rounds."""
        _, result = learned_fast
        costs = [r.estimated_cost for r in result.rounds]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_total_mass_reasonable(self, learned_fast):
        """The greedy optimises squared-l2 error, so low-p_i^2 regions may
        stay uncovered (value 0); total mass is close to, but below, 1."""
        _, result = learned_fast
        mass = result.histogram.total_mass()
        assert 0.5 <= mass <= 1.05

    def test_samples_used_matches_params(self, learned_fast):
        _, result = learned_fast
        assert result.samples_used == result.params.total_samples

    def test_method_recorded(self, learned_fast, learned_exhaustive):
        assert learned_fast[1].method == "fast"
        assert learned_exhaustive[1].method == "exhaustive"


class TestMethodsAgree:
    def test_fast_close_to_exhaustive(self, learned_fast, learned_exhaustive):
        """Theorem 2: restricting candidates costs at most 3 eps extra."""
        dist, fast = learned_fast
        _, slow = learned_exhaustive
        err_fast = l2_distance_squared(dist, fast.histogram)
        err_slow = l2_distance_squared(dist, slow.histogram)
        assert err_fast <= err_slow + 3 * 0.25

    def test_fast_uses_fewer_candidates_at_larger_n(self):
        dist = families.random_tiling_histogram(512, 4, rng=9, min_piece=16)
        fast = HistogramSession(dist, 512, rng=10, scale=0.02, method="fast").learn(4, 0.3)
        assert fast.num_candidates < 512 * 513 // 2


class TestParameters:
    def test_explicit_params_respected(self):
        dist = families.uniform(64)
        params = GreedyParams(
            weight_sample_size=500,
            collision_sets=3,
            collision_set_size=500,
            rounds=2,
        )
        result = HistogramSession(dist, 64, rng=3).learn(2, 0.5, params=params)
        assert result.params is params
        assert len(result.rounds) == 2

    def test_invalid_method_raises(self):
        with pytest.raises(InvalidParameterError):
            HistogramSession(families.uniform(16), 16, method="magic").learn(2, 0.5)

    def test_collision_set_size_one_rejected(self):
        """A one-sample collision set has no pairs (every z would be 0/0,
        every round's cost NaN), so the params refuse it up front."""
        session = HistogramSession(families.uniform(64), 64, rng=3)
        with pytest.raises(InvalidParameterError, match="collision_set_size"):
            session.learn(2, 0.5, params=GreedyParams(200, 3, 1, 2))

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_nonpositive_max_candidates_rejected(self, method, cap):
        session = HistogramSession(
            families.zipf(64, 1.0), 64, rng=3, method=method
        )
        with pytest.raises(InvalidParameterError, match="max_candidates"):
            session.learn(2, 0.5, params=GreedyParams(200, 3, 200, 2), max_candidates=cap)

    def test_max_candidates_cap(self):
        dist = families.uniform(64)
        params = GreedyParams(200, 3, 200, 2)
        result = HistogramSession(dist, 64, rng=3, max_candidates=50).learn(
            2, 0.5, params=params
        )
        assert result.num_candidates <= 50

    def test_deterministic_given_seed(self):
        dist = families.zipf(64, 1.0)
        params = GreedyParams(500, 3, 500, 3)
        a = HistogramSession(dist, 64, rng=5).learn(3, 0.5, params=params)
        b = HistogramSession(dist, 64, rng=5).learn(3, 0.5, params=params)
        assert a.histogram == b.histogram


class TestEdgeCases:
    def test_uniform_input_one_round(self):
        """k=1, eps high -> a single round; result near uniform."""
        dist = families.uniform(32)
        result = HistogramSession(dist, 32, rng=3, scale=0.2).learn(1, 0.5)
        assert l2_distance_squared(dist, result.histogram) < 0.05

    def test_point_mass_found(self):
        """A distribution concentrated on one element is isolated."""
        pmf = np.full(64, 0.2 / 63)
        pmf[20] = 0.8
        from repro.distributions.base import DiscreteDistribution

        dist = DiscreteDistribution(pmf)
        result = HistogramSession(dist, 64, rng=3, scale=0.1).learn(2, 0.25)
        assert result.histogram.value_at(20) > 10 * result.histogram.value_at(40)

    def test_tiny_domain(self):
        dist = families.uniform(2)
        result = HistogramSession(dist, 2, rng=3, scale=0.5).learn(1, 0.5)
        assert result.histogram.n == 2
