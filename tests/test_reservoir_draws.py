"""Reservoir collision families: the draw contract and the bias it removes.

A reservoir-backed family (the tester's ``r`` sets, or the learner's
``r`` collision sets) is one random permutation of the held slots cut
into disjoint sets (``ReservoirSampler.sample_sets``).  Drawn with
replacement instead, a slot drawn twice counts as a collision, which
doubles every pair rate at ``set_size = capacity`` and made
``uniformity()`` and the l1 tester reject uniform streams.  The
statistical tests below state their trial counts and bounds; each one
fails on with-replacement draws.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ArraySource, CountingSource, HistogramSession, SketchBundle
from repro.core.params import GreedyParams, TesterParams
from repro.core.tester import _reference_test
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.collision import collision_count
from repro.samples.estimators import MultiSketch
from repro.streaming import FleetMaintainer
from repro.streaming.reservoir import ReservoirSampler
from repro.utils.prefix import pairs_count

N = 4_096
CAPACITY = 4_096
STREAM = 16_384


def _distinct_reservoir(capacity: int, seen: int, seed: int) -> ReservoirSampler:
    """A reservoir over a stream of distinct values, so a value names its slot."""
    reservoir = ReservoirSampler(capacity, rng=seed)
    reservoir.update_many(np.arange(seen))
    return reservoir


def _assert_family(sets, held: set, size: int, drawn: "tuple[int, int]") -> None:
    """Every item is held; when the family was drawn as ``drawn = (r, s)``,
    no set repeats a slot while ``s`` fits in the ``size`` held slots and
    the sets are disjoint while ``r x s`` does (prefix views included)."""
    num_sets, set_size = drawn
    for s in sets:
        assert set(s.tolist()) <= held
        if set_size <= size:
            assert np.unique(s).size == s.size
    if num_sets * set_size <= size:
        union = np.concatenate(sets)
        assert np.unique(union).size == union.size


class TestSampleSets:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 64),
        seen=st.integers(1, 200),
        num_sets=st.integers(1, 8),
        set_size=st.integers(1, 70),
        seed=st.integers(0, 2**16),
    )
    def test_sets_are_held_disjoint_and_repeat_free(
        self, capacity, seen, num_sets, set_size, seed
    ):
        reservoir = _distinct_reservoir(capacity, seen, seed)
        sets = reservoir.sample_sets(num_sets, set_size, np.random.default_rng(seed))
        assert [s.shape for s in sets] == [(set_size,)] * num_sets
        _assert_family(
            sets, set(reservoir.contents().tolist()), reservoir.size,
            (num_sets, set_size),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(1, 64),
        seen=st.integers(1, 200),
        first=st.tuples(st.integers(1, 6), st.integers(2, 40)),
        second=st.tuples(st.integers(1, 8), st.integers(2, 70)),
        seed=st.integers(0, 2**16),
    )
    def test_a_grown_family_keeps_both_properties(
        self, capacity, seen, first, second, seed
    ):
        """The bundle redraws a reservoir family whole when it must grow,
        so the grown sets, and every prefix view of them, stay disjoint
        and repeat-free."""
        reservoir = _distinct_reservoir(capacity, seen, seed)
        bundle = SketchBundle(reservoir, seen, np.random.default_rng(seed))
        held, size = set(reservoir.contents().tolist()), reservoir.size
        small = TesterParams(*first)
        bundle.tester_sets(small)
        large = TesterParams(max(first[0], second[0]), max(first[1], second[1]))
        drawn = (large.num_sets, large.set_size) if large != small else first
        for params in (large, small):
            _assert_family(bundle.tester_sets(params), held, size, drawn)
        bundle.learn_samples(GreedyParams(16, *first, rounds=1))
        grown = bundle.learn_samples(GreedyParams(32, *drawn, rounds=1))
        _assert_family(list(grown.collision_sets), held, size, drawn)

    def test_empty_reservoir_and_bad_size_raise(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(4).sample_sets(2, 1)
        with pytest.raises(InvalidParameterError):
            _distinct_reservoir(4, 4, 0).sample_sets(2, 0)

    def test_a_full_family_is_one_permutation(self):
        """r x s == held: the sets partition the reservoir exactly."""
        reservoir = _distinct_reservoir(20, 100, 3)
        sets = reservoir.sample_sets(4, 5, np.random.default_rng(1))
        assert sorted(np.concatenate(sets).tolist()) == sorted(
            reservoir.contents().tolist()
        )


class TestFamilyDraw:
    def test_a_fresh_family_is_one_draw(self):
        reservoir = _distinct_reservoir(512, 2_000, 5)
        bundle = SketchBundle(reservoir, 2_000, np.random.default_rng(0))
        calls = []
        draw = bundle._draw

        def recording(size, *rest):
            calls.append((size, *rest))
            return draw(size, *rest)

        bundle._draw = recording
        bundle.tester_sets(TesterParams(5, 100))
        bundle.learn_samples(GreedyParams(256, 5, 100, rounds=1))
        assert calls == [(500, 5), (256,), (500, 5)]
        assert bundle.samples_drawn == 1_256

    def test_counting_source_forwards_the_family(self):
        reservoir = _distinct_reservoir(64, 64, 2)
        counting = CountingSource(reservoir)
        assert counting.disjoint_sets
        bundle = SketchBundle(counting, 64, np.random.default_rng(0))
        sets = bundle.tester_sets(TesterParams(4, 16))
        assert np.unique(np.concatenate(sets)).size == 64
        assert (counting.calls, counting.samples_drawn) == (4, 64)
        assert not CountingSource(families.uniform(8)).disjoint_sets

    @pytest.mark.parametrize(
        "source",
        [families.zipf(64, 1.0), ArraySource(np.arange(64) % 7, 64)],
        ids=["distribution", "array"],
    )
    def test_iid_families_are_consecutive_sample_calls(self, source):
        """A distribution or array family is exactly ``r`` ``sample()`` calls
        on the bundle's generator, and it still grows by suffix."""
        bundle = SketchBundle(source, 64, np.random.default_rng(9))
        sets = [s.copy() for s in bundle.tester_sets(TesterParams(3, 50))]
        grown = bundle.tester_sets(TesterParams(3, 80))
        generator = np.random.default_rng(9)
        expected = [source.sample(50, generator) for _ in range(3)]
        expected = [
            np.concatenate((head, source.sample(30, generator))) for head in expected
        ]
        for small, big, want in zip(sets, grown, expected):
            assert np.array_equal(small, want[:50])
            assert np.array_equal(big, want)

    def test_growth_drops_sketches_over_the_old_sets(self):
        """A reservoir family that grows is redrawn, and the next call
        compiles over the new sets, not the stale layout."""
        reservoir = _distinct_reservoir(1_024, 8_192, 4)
        session = HistogramSession(reservoir, 8_192, rng=1)
        bundle = session._bundle
        small, large = TesterParams(5, 100), TesterParams(5, 200)
        session.test_l2(4, 0.3, params=small)
        before = [s.copy() for s in bundle.tester_sets(small)]
        session.test_l2(4, 0.3, params=large)
        assert session.draw_events["test"] == 2
        assert not any(
            np.array_equal(a, b) for a, b in zip(before, bundle.tester_sets(small))
        )
        for params in (small, large):
            multi = MultiSketch.from_sample_sets(bundle.tester_sets(params), 8_192)
            assert session.test_l2(4, 0.3, params=params) == _reference_test(
                multi, 8_192, 4, 0.3, "l2", params
            )


class TestUnbiasedServing:
    """The served statistics are unbiased: uniform streams at n = capacity
    = 4,096.

    Drawn with replacement, n x pair rate reads 2.00 and these probes
    accept 0 of 16 streams and 0 of 32 seeds.
    """

    def test_default_budget_fits_the_reservoir(self):
        maintainer = FleetMaintainer(1, N, 8, 0.3)
        assert maintainer._tester_params(None) == TesterParams(5, CAPACITY // 5)
        assert maintainer._params.collision_set_size == CAPACITY // 5

    def test_pair_rate_is_unbiased(self):
        """32 seeds x 5 default tester sets over one uniform stream of
        16,384 items: n x mean pair rate within 1 +- 0.1 (the sd of the
        mean is about 0.008)."""
        stream = np.random.default_rng(0).integers(0, N, STREAM)
        rates = []
        for seed in range(32):
            maintainer = FleetMaintainer(1, N, 8, 0.3, rng=seed)
            maintainer.update_many(0, stream)
            maintainer.test(k=1)
            params = maintainer._tester_params(None)
            for s in maintainer.fleet.bundle(0).tester_sets(params):
                rates.append(collision_count(s) / pairs_count(s.size))
        assert len(rates) == 160
        assert abs(N * np.mean(rates) - 1.0) <= 0.1

    def test_uniformity_accepts_uniform_streams(self):
        """16 full reservoirs of uniform streams: at least 11 of 16 accepted."""
        maintainer = FleetMaintainer(16, N, 8, 0.3, rng=5)
        feeder = np.random.default_rng(6)
        for member in range(16):
            maintainer.update_many(member, feeder.integers(0, N, STREAM))
        results = maintainer.uniformity()
        assert all(r.samples_used == 5 * (CAPACITY // 5) for r in results)
        assert sum(r.accepted for r in results) >= 11

    @pytest.mark.parametrize(
        "dist",
        [
            families.uniform(N),
            families.random_tiling_histogram(N, 8, rng=3, min_piece=64),
        ],
        ids=["uniform", "8-histogram"],
    )
    def test_reservoir_matches_iid_at_the_same_budget(self, dist):
        """l1 at k = 8, eps = 0.3, 5 x 819 sets, 32 pinned seeds per side:
        a capacity-4,096 reservoir of a 16,384-item stream accepts within
        9 of the iid count (about a 3-sigma two-proportion band)."""
        params = TesterParams(5, CAPACITY // 5)
        iid = reservoir = 0
        for seed in range(32):
            iid += HistogramSession(dist, N, rng=seed).test_l1(
                8, 0.3, params=params
            ).accepted
            sampler = ReservoirSampler(CAPACITY, rng=1_000 + seed)
            sampler.update_many(dist.sample(STREAM, np.random.default_rng(2_000 + seed)))
            reservoir += HistogramSession(sampler, N, rng=seed).test_l1(
                8, 0.3, params=params
            ).accepted
        assert abs(iid - reservoir) <= 9
