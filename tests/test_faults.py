"""Tests for repro.utils.faults — the deterministic fault-injection layer.

The consequences of a plan (a crash mid-checkpoint, a source dying
mid-draw) live in ``test_persist.py`` and ``test_failure_injection.py``;
this file pins the plan's own mechanics: schedules are pure functions of
the configuration, counters advance per consumed slot, and the source
wrapper fails exactly the scheduled draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InjectedFaultError, InvalidParameterError
from repro.utils.faults import KILL, FaultPlan


class TestFaultPlanSchedules:
    def test_kill_at_fires_once_per_index(self):
        plan = FaultPlan(kill_at=[1, 3])
        directives = plan.task_directives(5)
        assert [d is not None and d[0] == KILL for d in directives] == [
            False, True, False, True, False,
        ]
        # Later slots are past the scheduled indices: nothing re-fires.
        assert plan.task_directives(5) == [None] * 5
        assert plan.injected == {"kills": 2}
        assert plan.tasks_scheduled == 10

    def test_counter_spans_attempts(self):
        # A retried operation consumes fresh slots: the same one-shot
        # kill schedule cannot re-fire.
        plan = FaultPlan(kill_at=[0])
        assert plan.task_directives(3)[0] == (KILL,)
        assert plan.task_directives(3) == [None] * 3

    def test_zero_count_consumes_nothing(self):
        plan = FaultPlan(kill_at=[0])
        assert plan.task_directives(0) == []
        assert plan.tasks_scheduled == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan(kill_at=[-1])
        with pytest.raises(InvalidParameterError):
            FaultPlan(fail_draw_at=[-1])


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
        source = FaultPlan(fail_draw_at=[1]).wrap_source(inner)
        assert source.sample(4).shape == (4,)
        with pytest.raises(InjectedFaultError, match="draw 1"):
            source.sample(8)
        # The failed draw never reached the inner source — it is left
        # exactly one batch short, the way a real source dies.
        assert inner.sizes == [4]
        assert source.draws == 2

    def test_unscheduled_wrapper_is_transparent(self):
        inner = _Recorder()
        source = FaultPlan().wrap_source(inner)
        for size in (2, 3, 5):
            source.sample(size)
        assert inner.sizes == [2, 3, 5]
