"""The learn driver: byte-identity against per-run references.

:func:`repro.core.greedy.lockstep_learn` is the one learn driver:
sessions, fleets and maintainers hand it any batch of runs (a session's
``learn_many`` grid, a fleet's members, the full fleet x grid product)
and it steps each run through its rounds on the one greedy engine.
Its contract — byte-identical histograms, per-round traces, priority
logs and draw accounting — is pinned here against two references
swapped in at the facades' driver seam: every run stepped alone on the
same incremental engine, and the engine's private full-span mode.  The
hypothesis cases mix round budgets within one batch and cover both
candidate methods.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.fleet as api_fleet
import repro.api.session as api_session
from repro.api import (
    ArraySource,
    HistogramFleet,
    HistogramSession,
)
from repro.core.greedy import _reference_learn
from repro.core.params import GreedyParams, greedy_rounds
from repro.distributions import families

LEARN_PARAMS = GreedyParams(
    weight_sample_size=3_000, collision_sets=4, collision_set_size=1_500, rounds=2
)
# Round budgets q = k ln(1/eps) differ across this grid, so in any
# batched run the small-k points converge and leave the active mask
# while the large-k points are still committing rounds.
MIXED_GRID = [(2, 0.4), (6, 0.2), (3, 0.3)]
METHODS = st.sampled_from(["fast", "exhaustive"])
# Every run stepped alone on the production (dirty-span) engine.
ALONE = functools.partial(_reference_learn, full_span=False)


@contextlib.contextmanager
def _routed(driver):
    """Send every session/fleet learn through ``driver`` for the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api_session, "lockstep_learn", driver)
        patch.setattr(api_fleet, "lockstep_learn", driver)
        yield


def _freeze(result):
    """Everything the byte-identity contract covers, hashable."""
    return (
        result.histogram.boundaries.tobytes(),
        result.histogram.values.tobytes(),
        result.filled_histogram.values.tobytes(),
        tuple(result.rounds),
        tuple(result.priority_histogram.pieces()),
        result.num_candidates,
    )


def _member_values(n, fleet_size, seed):
    """One pinned value array per member; wrap in a fresh
    :class:`ArraySource` per driver so both sides see identical data."""
    base = families.random_tiling_histogram(n, 4, rng=seed, min_piece=4)
    return [
        base.sample(12_000, np.random.default_rng(seed + 50 + f))
        for f in range(fleet_size)
    ]


def test_grid_round_budgets_really_differ():
    """Guard the premise of the mixed-budget coverage: the pinned grid
    mixes round budgets, so batches over it hold runs of different
    lengths (not just equal-length runs)."""
    budgets = {greedy_rounds(k, epsilon) for k, epsilon in MIXED_GRID}
    assert len(budgets) > 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), method=METHODS)
def test_session_lockstep_matches_incremental(seed, method):
    """Session ``learn`` and the batched ``learn_many`` are byte-identical
    to stepping every run alone on the same incremental engine, draw
    events included."""
    n = 96
    (values,) = _member_values(n, 1, seed)

    def run():
        session = HistogramSession(
            ArraySource(values, n),
            n,
            rng=seed,
            method=method,
            learn_budget=LEARN_PARAMS,
        )
        single = _freeze(session.learn(3, 0.3))
        grid = [_freeze(r) for r in session.learn_many(MIXED_GRID)]
        return single, grid, session.draw_events, session.samples_drawn

    lockstep = run()
    with _routed(ALONE):
        assert run() == lockstep


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fleet_size=st.integers(min_value=1, max_value=4),
    method=METHODS,
)
def test_fleet_learn_many_matches_looped_sessions(seed, fleet_size, method):
    """One fleet batch over the full ``F x P`` product — members with
    differing round budgets side by side — equals looping
    sessions through the full-span reference point by point: histograms,
    round traces, priority histograms, and draw accounting."""
    n = 96
    member_values = _member_values(n, fleet_size, seed)
    seeds = [seed + 7 * f for f in range(fleet_size)]
    fleet = HistogramFleet(
        [ArraySource(values, n) for values in member_values],
        n,
        rngs=seeds,
        method=method,
        learn_budget=LEARN_PARAMS,
    )
    sessions = [
        HistogramSession(
            ArraySource(values, n),
            n,
            rng=s,
            method=method,
            learn_budget=LEARN_PARAMS,
        )
        for values, s in zip(member_values, seeds)
    ]
    fleet_results = fleet.learn_many(MIXED_GRID)
    with _routed(_reference_learn):
        session_results = [session.learn_many(MIXED_GRID) for session in sessions]
    assert [
        [_freeze(r) for r in member] for member in fleet_results
    ] == [[_freeze(r) for r in member] for member in session_results]
    assert fleet.draw_events == [session.draw_events for session in sessions]
    # The batch planned its pools up front: one learn draw per member.
    assert all(events["learn"] == 1 for events in fleet.draw_events)


def test_fleet_learn_matches_looped_sessions_single_point():
    """``HistogramFleet.learn`` (the serving/maintainer entry point)
    holds the same contract against the full-span reference on a single
    point, member subsets included."""
    n = 128
    member_values = _member_values(n, 5, 3)
    seeds = list(range(5))
    fleet = HistogramFleet(
        [ArraySource(values, n) for values in member_values],
        n,
        rngs=seeds,
        learn_budget=LEARN_PARAMS,
    )
    sessions = [
        HistogramSession(ArraySource(values, n), n, rng=s, learn_budget=LEARN_PARAMS)
        for values, s in zip(member_values, seeds)
    ]
    subset = [3, 1]
    fleet_results = fleet.learn(4, 0.25, members=subset)
    with _routed(_reference_learn):
        session_results = [sessions[f].learn(4, 0.25) for f in subset]
    assert [_freeze(r) for r in fleet_results] == [
        _freeze(r) for r in session_results
    ]
