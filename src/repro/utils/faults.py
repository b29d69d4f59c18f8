"""Deterministic fault injection for the failure-path tests.

:class:`FaultySource` wraps a :class:`~repro.api.SampleSource` so its
N-th draw raises :class:`~repro.errors.InjectedFaultError` — the "source
dies mid-draw" scenario for session/fleet/service error-path tests.
Draws are counted per wrapper and never depend on wall time, so a fault
run is replayable.
"""

from __future__ import annotations

from repro.errors import InjectedFaultError, InvalidParameterError


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
        self._fail_at = frozenset(int(i) for i in fail_at)
        if any(i < 0 for i in self._fail_at):
            raise InvalidParameterError(
                f"fail_at indices must be >= 0, got {sorted(self._fail_at)}"
            )
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
