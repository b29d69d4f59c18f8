"""Tests for repro.api (HistogramSession, SampleSource, SketchBundle).

The two contracts that make the facade safe to adopt:

* a fresh session is seed-for-seed byte-identical to the legacy one-shot
  entry points (same draws, same order, same results);
* batched operations share one sample draw per sketch family (asserted
  through a counting source).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ArraySource,
    CountingSource,
    HistogramFleet,
    HistogramSession,
    SampleSource,
    as_sample_source,
)
from repro.core.greedy import learn_histogram
from repro.core.params import GreedyParams, TesterParams
from repro.core.selection import estimate_min_k

# Alias the paper-named ``test*`` functions so pytest does not collect them.
from repro.core.tester import test_k_histogram_l1 as khist_test_l1
from repro.core.tester import test_k_histogram_l2 as khist_test_l2
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.streaming.reservoir import ReservoirSampler

N = 128
DIST = families.random_tiling_histogram(N, 4, rng=7, min_piece=4)
TEST_PARAMS = TesterParams(num_sets=5, set_size=4_000)
LEARN_PARAMS = GreedyParams(
    weight_sample_size=2_000, collision_sets=5, collision_set_size=800, rounds=6
)


def assert_learn_results_equal(a, b):
    assert a.histogram == b.histogram
    assert a.filled_histogram == b.filled_histogram
    assert a.priority_histogram.to_tiling() == b.priority_histogram.to_tiling()
    assert a.rounds == b.rounds
    assert a.params == b.params
    assert a.method == b.method
    assert a.num_candidates == b.num_candidates
    assert a.samples_used == b.samples_used


class TestSampleSource:
    def test_distribution_satisfies_protocol(self):
        assert isinstance(DIST, SampleSource)
        assert as_sample_source(DIST) is DIST

    def test_reservoir_satisfies_protocol(self):
        reservoir = ReservoirSampler(16, rng=1)
        reservoir.update_many(np.arange(16))
        assert isinstance(reservoir, SampleSource)
        assert as_sample_source(reservoir) is reservoir

    def test_array_is_wrapped(self):
        source = as_sample_source(np.array([1, 5, 5, 9]))
        assert isinstance(source, ArraySource)
        assert source.n == 10
        draws = source.sample(1_000, rng=0)
        assert set(np.unique(draws)) <= {1, 5, 9}

    def test_array_source_respects_explicit_n(self):
        assert ArraySource(np.array([1, 2]), n=64).n == 64
        with pytest.raises(InvalidParameterError):
            ArraySource(np.array([1, 70]), n=64)

    def test_array_source_validation(self):
        with pytest.raises(InvalidParameterError):
            ArraySource(np.empty(0, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            ArraySource(np.array([-1, 2]))
        with pytest.raises(InvalidParameterError):
            ArraySource(np.zeros((2, 2)))

    def test_unsupported_source_rejected(self):
        with pytest.raises(InvalidParameterError):
            as_sample_source(object())

    def test_counting_source_accounts_draws(self):
        counting = CountingSource(DIST)
        counting.sample(10, rng=0)
        counting.sample(5, rng=0)
        assert counting.calls == 2
        assert counting.samples_drawn == 15


class TestSeedEquivalence:
    """One-shot sessions are byte-identical to the legacy entry points."""

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    def test_learn_matches_legacy(self, method):
        legacy = learn_histogram(
            DIST, N, 4, 0.3, method=method, scale=0.05, rng=17
        )
        fresh = HistogramSession(DIST, N, rng=17, scale=0.05, method=method)
        assert_learn_results_equal(legacy, fresh.learn(4, 0.3))

    def test_learn_matches_legacy_with_params_and_cap(self):
        legacy = learn_histogram(
            DIST, N, 3, 0.4, params=LEARN_PARAMS, max_candidates=200, rng=3
        )
        fresh = HistogramSession(DIST, N, rng=3, max_candidates=200)
        assert_learn_results_equal(legacy, fresh.learn(3, 0.4, params=LEARN_PARAMS))

    def test_test_l2_matches_legacy(self):
        legacy = khist_test_l2(DIST, N, 4, 0.3, params=TEST_PARAMS, rng=5)
        fresh = HistogramSession(DIST, N, rng=5)
        assert legacy == fresh.test_l2(4, 0.3, params=TEST_PARAMS)

    def test_test_l1_matches_legacy(self):
        legacy = khist_test_l1(DIST, N, 4, 0.3, params=TEST_PARAMS, rng=5)
        fresh = HistogramSession(DIST, N, rng=5)
        assert legacy == fresh.test_l1(4, 0.3, params=TEST_PARAMS)

    def test_min_k_matches_legacy(self):
        legacy = estimate_min_k(DIST, N, 0.25, max_k=10, params=TEST_PARAMS, rng=9)
        fresh = HistogramSession(DIST, N, rng=9)
        assert legacy == fresh.min_k(0.25, max_k=10, params=TEST_PARAMS)

    def test_legacy_shims_stay_deterministic(self):
        """Same seed, same call — twice — gives identical results."""
        a = learn_histogram(DIST, N, 4, 0.3, scale=0.05, rng=11)
        b = learn_histogram(DIST, N, 4, 0.3, scale=0.05, rng=11)
        assert_learn_results_equal(a, b)
        assert khist_test_l2(
            DIST, N, 4, 0.3, params=TEST_PARAMS, rng=11
        ) == khist_test_l2(DIST, N, 4, 0.3, params=TEST_PARAMS, rng=11)


class TestSampleReuse:
    """Batched operations issue one draw per sketch family."""

    GRID = [(2, 0.3), (3, 0.3), (4, 0.25), (5, 0.25)]

    def test_learn_many_single_draw_event(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, scale=0.05)
        results = session.learn_many(self.GRID)
        assert len(results) == 4
        assert session.draw_events == {"learn": 1, "test": 0}
        # One call for the weight sample plus one per collision set, all
        # made while filling the pool once.
        largest = GreedyParams.from_paper(N, 5, 0.25, scale=0.05)
        assert counting.calls == 1 + largest.collision_sets

    def test_learn_many_with_shared_budget_reuses_everything(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, learn_budget=LEARN_PARAMS)
        session.learn_many(self.GRID)
        calls_after_batch = counting.calls
        session.learn(3, 0.28)  # contained sizes: no new draws
        assert counting.calls == calls_after_batch

    def test_learn_budget_varies_rounds_only(self):
        session = HistogramSession(DIST, N, rng=2, learn_budget=LEARN_PARAMS)
        small, large = session.learn_many([(2, 0.5), (5, 0.25)])
        assert small.params.weight_sample_size == large.params.weight_sample_size
        assert len(small.rounds) < len(large.rounds)

    def test_test_many_single_draw_event(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        verdicts = session.test_many(self.GRID, norm="l2", params=TEST_PARAMS)
        assert len(verdicts) == 4
        assert session.draw_events == {"learn": 0, "test": 1}
        assert counting.calls == TEST_PARAMS.num_sets

    def test_testers_and_min_k_share_one_pool(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, test_budget=TEST_PARAMS)
        session.test_l2(4, 0.3)
        calls_after_first = counting.calls
        session.test_l1(3, 0.3)
        session.min_k(0.3, max_k=8)
        assert counting.calls == calls_after_first

    def test_pool_growth_draws_only_the_difference(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        session.test_l2(4, 0.3, params=TesterParams(num_sets=5, set_size=1_000))
        drawn_small = counting.samples_drawn
        session.test_l2(4, 0.3, params=TesterParams(num_sets=5, set_size=1_500))
        # Each of the 5 sets grows by 500 samples; nothing is re-drawn.
        assert counting.samples_drawn - drawn_small == 5 * 500

    def test_pool_growth_skips_unused_sets(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        session.test_l2(4, 0.3, params=TesterParams(num_sets=15, set_size=1_000))
        drawn_wide = counting.samples_drawn
        session.test_l2(4, 0.3, params=TesterParams(num_sets=5, set_size=3_000))
        # Only the 5 sets this call slices grow; the other 10 stay put.
        assert counting.samples_drawn - drawn_wide == 5 * 2_000

    def test_prefetch_learn_makes_later_learns_sample_free(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1, scale=0.05)
        session.prefetch_learn(self.GRID)
        drawn = counting.samples_drawn
        session.learn(5, 0.25)
        session.learn(2, 0.3)
        assert counting.samples_drawn == drawn
        assert session.draw_events["learn"] == 1

    def test_invalidate_forces_redraw(self):
        counting = CountingSource(DIST)
        session = HistogramSession(counting, N, rng=1)
        session.test_l2(4, 0.3, params=TEST_PARAMS)
        session.invalidate()
        session.test_l2(4, 0.3, params=TEST_PARAMS)
        assert session.draw_events["test"] == 2
        assert counting.calls == 2 * TEST_PARAMS.num_sets

    def test_repeated_call_is_identical(self):
        """Cached sketches make repeat calls pure."""
        session = HistogramSession(DIST, N, rng=4, scale=0.05)
        assert session.test_l2(4, 0.3, params=TEST_PARAMS) == session.test_l2(
            4, 0.3, params=TEST_PARAMS
        )
        assert_learn_results_equal(session.learn(4, 0.3), session.learn(4, 0.3))


class TestSessionBehaviour:
    def test_samples_drawn_tracks_pool(self):
        session = HistogramSession(DIST, N, rng=1)
        session.test_l2(4, 0.3, params=TEST_PARAMS)
        assert session.samples_drawn == TEST_PARAMS.total_samples

    def test_learn_results_are_sensible(self):
        session = HistogramSession(DIST, N, rng=6, scale=0.05)
        result = session.learn(4, 0.3)
        assert result.histogram.n == N
        assert result.histogram.num_pieces >= 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            HistogramSession(DIST, 0)
        session = HistogramSession(DIST, N, rng=1)
        with pytest.raises(InvalidParameterError):
            session.test_many([(2, 0.3)], norm="tv")
        with pytest.raises(InvalidParameterError):
            session.min_k(0.3, max_k=0)
        with pytest.raises(InvalidParameterError):
            session.min_k(0.3, norm="tv")

    def test_empty_grids(self):
        session = HistogramSession(DIST, N, rng=1)
        assert session.learn_many([]) == []
        assert session.test_many([]) == []
        assert session.samples_drawn == 0

    def test_session_over_raw_array(self):
        values = DIST.sample(20_000, rng=0)
        session = HistogramSession(values, N, rng=1, scale=0.05)
        result = session.learn(4, 0.3)
        assert result.histogram.n == N


_BAD_LEARN_POINTS = [(0, 0.3), (-2, 0.3), (2, 0.0), (2, float("nan"))]


class TestLearnValidation:
    """A learn rejects an invalid (k, epsilon) even with explicit params."""

    @pytest.mark.parametrize(
        "k, epsilon", _BAD_LEARN_POINTS, ids=["k0", "k-2", "eps0", "eps-nan"]
    )
    @pytest.mark.parametrize("surface", ["session", "fleet", "maintainer", "service"])
    def test_bad_point_rejected_before_any_draw(self, surface, k, epsilon):
        message = "k must be a positive integer" if k < 1 else r"epsilon must be in \(0, 1\)"
        if surface == "session":
            session = HistogramSession(DIST, N, rng=1)
            with pytest.raises(InvalidParameterError, match=message):
                session.learn(k, epsilon, params=LEARN_PARAMS)
            with pytest.raises(InvalidParameterError, match=message):
                session.learn_many([(2, 0.3), (k, epsilon)], params=LEARN_PARAMS)
            assert session.samples_drawn == 0
        elif surface == "fleet":
            fleet = HistogramFleet([DIST, DIST], N, rngs=[1, 2])
            with pytest.raises(InvalidParameterError, match=message):
                fleet.learn(k, epsilon, params=LEARN_PARAMS)
            with pytest.raises(InvalidParameterError, match=message):
                fleet.learn_many([(k, epsilon)], params=LEARN_PARAMS)
            assert fleet.samples_drawn == [0, 0]
        elif surface == "maintainer":
            from repro.streaming import FleetMaintainer

            maintainer = FleetMaintainer(2, N, 2, 0.3, reservoir_capacity=256, rng=3)
            maintainer.update_many(0, DIST.sample(512, rng=4))
            with pytest.raises(InvalidParameterError, match=message):
                maintainer.learn(k, epsilon, members=[0])
        else:
            import asyncio

            from repro.serving import HistogramService, Request

            async def run():
                service = HistogramService(
                    ["a"], N, 2, 0.3, reservoir_capacity=256, rng=3
                )
                async with service:
                    await service.submit(Request.ingest("a", DIST.sample(512, rng=4)))
                    return await service.submit(Request.learn("a", k, epsilon))

            response = asyncio.run(run())
            assert not response.ok
            assert response.error_code == "invalid_parameter"


class TestGrowablePool:
    """Capacity-doubling pools: amortised growth, draw-only-the-deficit."""

    def test_fill_draws_only_deficit(self):
        from repro.api.sketches import _GrowablePool

        drawn = []

        def draw(count):
            drawn.append(count)
            return np.arange(count)

        pool = _GrowablePool()
        pool.fill_to(10, draw)
        pool.fill_to(10, draw)  # no-op
        pool.fill_to(25, draw)
        assert drawn == [10, 15]
        assert pool.length == 25
        assert list(pool.view(25)) == list(range(10)) + list(range(15))

    def test_views_are_read_only_and_zero_copy(self):
        from repro.api.sketches import _GrowablePool

        pool = _GrowablePool()
        pool.fill_to(8, lambda count: np.arange(count))
        view = pool.view(4)
        assert view.base is not None  # a view into the buffer, not a copy
        with pytest.raises(ValueError):
            view[0] = 99

    def test_capacity_doubles(self):
        from repro.api.sketches import _GrowablePool

        pool = _GrowablePool()
        pool.fill_to(4, lambda count: np.zeros(count, dtype=np.int64))
        pool.fill_to(5, lambda count: np.zeros(count, dtype=np.int64))
        assert pool.capacity >= 8  # doubled, not resized-to-fit
        pool.fill_to(6, lambda count: np.zeros(count, dtype=np.int64))
        assert pool.capacity >= 8

    def test_budget_bumps_keep_prefix(self):
        """Repeated learn budget bumps re-use the drawn prefix unchanged."""
        session = HistogramSession(DIST, N, rng=4)
        small = GreedyParams(
            weight_sample_size=500, collision_sets=3, collision_set_size=300, rounds=2
        )
        big = GreedyParams(
            weight_sample_size=900, collision_sets=4, collision_set_size=700, rounds=2
        )
        first = session._bundle.learn_samples(small)
        prefix = first.weight_samples.copy()
        second = session._bundle.learn_samples(big)
        assert np.array_equal(second.weight_samples[:500], prefix)
        assert session.draw_events == {"learn": 2, "test": 0}
