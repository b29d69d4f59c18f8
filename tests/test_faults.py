"""Tests for repro.utils.faults — the deterministic fault-injection layer.

The consequences of a fault (a source dying mid-draw) live in
``test_failure_injection.py``; this file pins the wrapper's own
mechanics: it fails exactly the scheduled draw, before delegating.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InjectedFaultError, InvalidParameterError
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
