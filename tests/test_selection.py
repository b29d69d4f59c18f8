"""Tests for repro.core.selection (min-k estimation), through a fresh
session per call."""

from __future__ import annotations

import pytest

from repro.api import HistogramFleet, HistogramSession
from repro.core.params import TesterParams
from repro.distributions import families
from repro.errors import InvalidParameterError

PARAMS = TesterParams(num_sets=11, set_size=20_000)


class TestEstimateMinK:
    def test_uniform_needs_one(self):
        result = HistogramSession(families.uniform(256), 256, rng=1).min_k(
            0.25, params=PARAMS
        )
        assert result.k == 1
        assert len(result.partition) == 1

    def test_recovers_k_of_well_separated_histogram(self):
        dist = families.random_tiling_histogram(256, 4, 5, min_piece=32)
        true_k = dist.min_histogram_pieces()
        result = HistogramSession(dist, 256, rng=2).min_k(0.2, params=PARAMS)
        assert result.k is not None
        assert result.k <= true_k  # never more pieces than the truth

    def test_lower_bound_yes_instance(self):
        from repro.core.lower_bound import yes_instance

        result = HistogramSession(yes_instance(256, 4), 256, rng=3).min_k(
            0.2, params=PARAMS
        )
        assert result.k is not None and result.k <= 4

    def test_sawtooth_needs_many(self):
        result = HistogramSession(families.sawtooth(64), 64, rng=4).min_k(
            0.25, max_k=8, params=PARAMS
        )
        assert result.k is None

    def test_partition_covers_domain_when_found(self):
        dist = families.two_level(256, heavy_start=64, heavy_length=64)
        result = HistogramSession(dist, 256, rng=5).min_k(0.25, params=PARAMS)
        assert result.k is not None
        assert result.partition[-1].stop == 256
        assert result.partition[0].start == 0

    def test_tried_flags_consistent(self):
        dist = families.two_level(256, heavy_start=64, heavy_length=64)
        result = HistogramSession(dist, 256, rng=6).min_k(0.25, max_k=6, params=PARAMS)
        for k, accepted in result.tried:
            assert accepted == (result.k is not None and k >= result.k)

    def test_l2_mode(self):
        result = HistogramSession(families.spikes(256, 8), 256, rng=7, scale=0.05).min_k(
            0.25, max_k=30, norm="l2"
        )
        # spikes(256, 8) is a 17-piece histogram (8 singleton spikes + gaps
        # with zero background): the tester needs more than 8 pieces.
        assert result.k is not None
        assert 8 < result.k <= 20

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            HistogramSession(families.uniform(16), 16).min_k(0.25, max_k=0)
        with pytest.raises(InvalidParameterError):
            HistogramSession(families.uniform(16), 16).min_k(0.25, norm="tv")

    def test_samples_shared_across_candidates(self):
        result = HistogramSession(families.uniform(64), 64, rng=8).min_k(
            0.25, max_k=16, params=PARAMS
        )
        assert result.samples_used == PARAMS.total_samples


AGREEMENT_PARAMS = TesterParams(num_sets=5, set_size=3_000)
AGREEMENT_SEEDS = range(40)


def smallest_accepted(verdicts):
    """The first ``k`` (from 1) whose verdict accepted, or ``None``."""
    return next((k for k, accepted in enumerate(verdicts, 1) if accepted), None)


class TestMinKAgreesWithTester:
    """For l2, min-k is exactly the smallest k ``test_l2`` accepts.

    The l2 flatness test does not depend on ``k``, so the one left-greedy
    sweep at ``max_k`` answers for every candidate.  l1 has no such pin:
    its sweep tests light intervals at ``max_k``'s scale, and on these
    seeds it reports more pieces than ``test_l1`` needs on 10 of 40.
    """

    @staticmethod
    def _dist(seed):
        return families.random_tiling_histogram(256, 4, rng=seed, min_piece=8)

    def test_session_l2(self):
        for seed in AGREEMENT_SEEDS:
            session = HistogramSession(self._dist(seed), 256, rng=seed)
            found = session.min_k(0.3, max_k=16, norm="l2", params=AGREEMENT_PARAMS)
            verdicts = [
                session.test_l2(k, 0.3, params=AGREEMENT_PARAMS).accepted
                for k in range(1, 17)
            ]
            assert found.k == smallest_accepted(verdicts), seed

    def test_fleet_l2(self):
        seeds = list(AGREEMENT_SEEDS)
        fleet = HistogramFleet([self._dist(seed) for seed in seeds], 256, rngs=seeds)
        found = fleet.min_k(0.3, max_k=16, norm="l2", params=AGREEMENT_PARAMS)
        per_k = [
            fleet.test_l2(k, 0.3, params=AGREEMENT_PARAMS) for k in range(1, 17)
        ]
        for member, result in enumerate(found):
            verdicts = [results[member].accepted for results in per_k]
            assert result.k == smallest_accepted(verdicts), seeds[member]
