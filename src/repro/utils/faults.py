"""Deterministic fault injection for the failure-path tests.

A :class:`FaultPlan` is a replayable schedule of faults consumed through
narrow test-only seams:

* :meth:`FaultPlan.task_directives` hands a seam one directive per
  scheduled slot; a ``kill`` directive tells it to crash there (the
  checkpoint-crash test raises mid-``fsync`` on one).
* :meth:`FaultPlan.wrap_source` wraps a
  :class:`~repro.api.SampleSource` so its N-th draw raises
  :class:`~repro.errors.InjectedFaultError` — the "source dies
  mid-draw" scenario for session/fleet/service error-path tests.

Determinism is the point: the schedule is a pure function of the plan's
configuration plus the order in which the seams consume it, so a fault
run is replayable.  Counters never reset and never depend on wall time;
two plans built from equal arguments issue equal schedules.
"""

from __future__ import annotations

from repro.errors import InjectedFaultError, InvalidParameterError

#: The directive kind a :class:`FaultPlan` issues for a scheduled kill.
KILL = "kill"


def _index_set(indices, label: str) -> frozenset:
    out = frozenset(int(i) for i in indices)
    if any(i < 0 for i in out):
        raise InvalidParameterError(f"{label} indices must be >= 0, got {sorted(out)}")
    return out


class FaultPlan:
    """A replayable schedule of injected faults.

    Parameters
    ----------
    kill_at:
        Slot indices (counted across every slot the seams consume
        through :meth:`task_directives`) that get a ``kill`` directive.
    fail_draw_at:
        Draw indices at which a :meth:`wrap_source`-wrapped source
        raises :class:`~repro.errors.InjectedFaultError`.
    """

    def __init__(self, *, kill_at=(), fail_draw_at=()) -> None:
        self._kill_at = _index_set(kill_at, "kill_at")
        self._fail_draw_at = _index_set(fail_draw_at, "fail_draw_at")
        self._tasks = 0
        self._injected = {"kills": 0}

    def task_directives(self, count: int) -> "list[tuple | None]":
        """Directives for the next ``count`` scheduled slots.

        Consumes ``count`` slots of the task counter, so a retried
        operation sees fresh schedule positions and a one-shot kill does
        not re-fire forever.
        """
        directives: "list[tuple | None]" = []
        for _ in range(max(int(count), 0)):
            index = self._tasks
            self._tasks += 1
            if index in self._kill_at:
                self._injected["kills"] += 1
                directives.append((KILL,))
            else:
                directives.append(None)
        return directives

    def wrap_source(self, source) -> "FaultySource":
        """``source`` wrapped to raise on the plan's ``fail_draw_at`` draws."""
        return FaultySource(source, fail_at=self._fail_draw_at)

    @property
    def injected(self) -> dict:
        """Counts of faults issued so far."""
        return dict(self._injected)

    @property
    def tasks_scheduled(self) -> int:
        """How many task slots the seams have consumed."""
        return self._tasks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(tasks={self._tasks}, injected={self._injected})"


class FaultySource:
    """A sample source whose N-th draw raises — the mid-draw crash.

    Wraps any object with the :class:`~repro.api.SampleSource` ``sample``
    shape; draws are counted per wrapper, and a draw index listed in
    ``fail_at`` raises :class:`~repro.errors.InjectedFaultError` *before*
    delegating, so the inner source's draw stream is left exactly one
    batch short — the way a real source dies.
    """

    def __init__(self, source, *, fail_at=()) -> None:
        self._source = source
        self._fail_at = _index_set(fail_at, "fail_at")
        self._draws = 0

    @property
    def draws(self) -> int:
        """How many draws were attempted through this wrapper."""
        return self._draws

    def sample(self, size, rng=None):
        """Delegate one draw, unless this draw index is scheduled to fail."""
        index = self._draws
        self._draws += 1
        if index in self._fail_at:
            raise InjectedFaultError(
                f"injected source fault on draw {index} (size {size})"
            )
        return self._source.sample(size, rng)
