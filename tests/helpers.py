"""Shared test helpers."""

from __future__ import annotations


def compiled_tester(owner, params, member: int = 0):
    """Member ``member``'s compiled tester at ``params``' budget, or ``None``.

    ``owner`` is a :class:`~repro.api.HistogramFleet` or a
    :class:`~repro.api.HistogramSession` (read through its one-member
    fleet).  The fleet owns every compiled tester; this is the current
    compile a tester or min-k call on that budget reuses, ``None`` when
    the slot is empty or stale.
    """
    fleet = getattr(owner, "_fleet", owner)
    return fleet.tester_compiles(member).get((params.num_sets, params.set_size))
