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

    A family of sets draws the way the wrapped source does
    (:func:`repro.api.source.draw_sets`, so a wrapped reservoir still
    cuts disjoint sets) and counts one draw per set.  A family whose
    draws include a scheduled fault is drawn set by set instead, so the
    fault fires at the same draw index either way.
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

    @property
    def disjoint_sets(self) -> bool:
        """Whether the wrapped source cuts disjoint sets."""
        return getattr(self._source, "disjoint_sets", False)

    def sample(self, size, rng=None):
        """Delegate one draw, unless this draw index is scheduled to fail."""
        index = self._draws
        self._draws += 1
        if index in self._fail_at:
            raise InjectedFaultError(
                f"injected source fault on draw {index} (size {size})"
            )
        return self._source.sample(size, rng)

    def sample_sets(self, num_sets, set_size, rng=None):
        """Delegate one family of ``num_sets`` draws (see the class notes)."""
        from repro.api.source import draw_sets
        from repro.utils.rng import as_rng

        first = self._draws
        if any(first <= index < first + num_sets for index in self._fail_at):
            generator = None if rng is None else as_rng(rng)
            return [self.sample(set_size, generator) for _ in range(num_sets)]
        self._draws += num_sets
        return draw_sets(self._source, num_sets, set_size, rng)
