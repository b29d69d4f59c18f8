"""Tests for repro.utils.faults — the deterministic fault-injection layer.

The consequences of a fault (a source dying mid-draw) live in
``test_failure_injection.py``; this file pins the wrapper's own
mechanics: it fails exactly the scheduled draw, before delegating.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import HistogramSession
from repro.core.params import TesterParams
from repro.distributions import families
from repro.errors import InjectedFaultError, InvalidParameterError
from repro.streaming.reservoir import ReservoirSampler
from repro.utils.faults import FaultySource


class _Recorder:
    """A stub source that records the sizes it was asked for."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def sample(self, size, rng=None):
        self.sizes.append(size)
        return np.zeros(size, dtype=np.int64)


class TestFaultySource:
    def test_scheduled_draw_raises_before_delegating(self):
        inner = _Recorder()
        source = FaultySource(inner, fail_at=[1])
        assert source.sample(4).shape == (4,)
        with pytest.raises(InjectedFaultError, match="draw 1"):
            source.sample(8)
        # The failed draw never reached the inner source — it is left
        # exactly one batch short, the way a real source dies.
        assert inner.sizes == [4]
        assert source.draws == 2

    def test_unscheduled_wrapper_is_transparent(self):
        inner = _Recorder()
        source = FaultySource(inner)
        for size in (2, 3, 5):
            source.sample(size)
        assert inner.sizes == [2, 3, 5]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultySource(_Recorder(), fail_at=[-1])


class TestFaultySourceFamilies:
    """A family of sets draws the way the wrapped source does, one draw
    per set, and a scheduled fault still fires at its own index."""

    def test_wrapped_reservoir_cuts_disjoint_sets(self):
        params = TesterParams(num_sets=4, set_size=16)
        reservoir = ReservoirSampler(64, rng=3)
        reservoir.update_many(np.arange(64))  # one distinct value per slot
        source = FaultySource(reservoir)
        assert source.disjoint_sets
        session = HistogramSession(source, 64, rng=0)
        session.test_l2(2, 0.3, params=params)
        sets = session._bundle.tester_sets(params)
        # 4 x 16 draws from one permutation: every slot exactly once
        # (drawn with replacement at these seeds, they covered 39).
        assert np.unique(np.concatenate(sets)).size == 64
        assert source.draws == params.num_sets

    def test_distribution_family_matches_consecutive_samples(self):
        dist = families.zipf(32, 1.0)
        source = FaultySource(dist)
        assert not source.disjoint_sets
        sets = source.sample_sets(3, 10, np.random.default_rng(5))
        generator = np.random.default_rng(5)
        expected = [dist.sample(10, generator) for _ in range(3)]
        assert all(map(np.array_equal, sets, expected))
        assert source.draws == 3

    def test_fault_inside_a_family_fires_at_its_index(self):
        inner = _Recorder()
        source = FaultySource(inner, fail_at=[3])
        assert len(source.sample_sets(2, 4)) == 2  # draws 0 and 1
        with pytest.raises(InjectedFaultError, match="draw 3"):
            source.sample_sets(3, 5)  # draws 2, 3 (fails), 4
        # Draw 2 reached the inner source set by set; draw 3 never did.
        assert inner.sizes == [4, 4, 5]
        assert source.draws == 4
