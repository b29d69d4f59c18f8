"""The one greedy engine against its private full-span reference.

The production engine keeps each grid point's left/right remainder
terms cached across rounds and refreshes them — and rescores candidates
— only over the span the last commit dirtied; its private ``full_span``
mode re-tabulates every grid point and rescores every candidate every
round through the same code path.  The contract is *byte*-identity:
same chosen intervals, same estimated costs, same traces — not just
statistical agreement.  These tests pin that contract on fresh-session
learns, on session grids, and (the property at the heart of the design)
on the engine's cached state itself after every single round.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.api.fleet as api_fleet
import repro.core.greedy as greedy
from repro.api import HistogramFleet, HistogramSession
from repro.core.greedy import (
    _GreedyEngine,
    _pair_list_sketches,
    _reference_learn,
    _segment_sums,
    compile_greedy_sketches,
    draw_greedy_samples,
    learn_from_samples,
)
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.serving import HistogramService
from repro.streaming import FleetMaintainer

GRID = [(2, 0.3), (4, 0.25), (6, 0.2)]
PARAMS = GreedyParams(
    weight_sample_size=1_500, collision_sets=5, collision_set_size=600, rounds=6
)


def assert_results_identical(a, b):
    """Field-by-field byte-identity of two LearnResults."""
    assert a.histogram == b.histogram
    assert a.filled_histogram == b.filled_histogram
    assert a.priority_histogram.to_tiling() == b.priority_histogram.to_tiling()
    assert a.rounds == b.rounds  # exact float equality on costs/weights
    assert a.method == b.method
    assert a.num_candidates == b.num_candidates
    assert a.samples_used == b.samples_used


@contextlib.contextmanager
def _full_span():
    """Route one-shot and session learns through the full-span reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy, "lockstep_learn", _reference_learn)
        patch.setattr(api_fleet, "lockstep_learn", _reference_learn)
        yield


class TestLearnEquivalence:
    """Fresh-session learns: production engine == full-span reference."""

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    @pytest.mark.parametrize("seed", [1, 17, 92])
    def test_fresh_draw_equivalence(self, method, seed):
        dist = families.zipf(128, 1.0)

        def learn():
            session = HistogramSession(dist, 128, rng=seed, scale=0.05, method=method)
            return session.learn(4, 0.25)

        production = learn()
        with _full_span():
            assert_results_identical(production, learn())

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    def test_structured_distribution(self, method):
        dist = families.random_tiling_histogram(96, 5, rng=3, min_piece=4)

        def learn():
            session = HistogramSession(dist, 96, rng=11, method=method)
            return session.learn(5, 0.3, params=PARAMS)

        production = learn()
        with _full_span():
            assert_results_identical(production, learn())

    def test_invalid_engine_rejected(self):
        """There is one learner engine and one tester path: no entry
        point takes ``engine=`` or ``tester_engine=``, and a stray one is
        a TypeError rather than a silent choice."""
        for entry in (
            learn_from_samples,
            HistogramSession,
            HistogramFleet,
            FleetMaintainer,
            HistogramService,
        ):
            parameters = inspect.signature(entry).parameters
            assert "engine" not in parameters, entry
            assert "tester_engine" not in parameters, entry
        with pytest.raises(TypeError):
            HistogramSession(families.uniform(16), 16, tester_engine="full")


class TestSessionEquivalence:
    """A (k, eps) grid through HistogramSession: both modes agree per point."""

    @pytest.mark.parametrize("method", ["fast", "exhaustive"])
    def test_learn_many_grid(self, method):
        dist = families.zipf(128, 1.0)

        def run():
            session = HistogramSession(
                dist, 128, rng=5, method=method, learn_budget=PARAMS
            )
            return session.learn_many(GRID), session.draw_events

        production, events = run()
        with _full_span():
            reference, reference_events = run()
        for a, b in zip(production, reference):
            assert_results_identical(a, b)
        assert events == reference_events

    def test_engine_override_per_call(self):
        """The per-call override went with the knob: session and fleet
        learns take no ``engine=``."""
        for method in (
            HistogramSession.learn,
            HistogramSession.learn_many,
            HistogramFleet.learn,
            HistogramFleet.learn_many,
        ):
            assert "engine" not in inspect.signature(method).parameters, method
        session = HistogramSession(
            families.zipf(64, 1.0), 64, rng=2, learn_budget=PARAMS
        )
        with pytest.raises(TypeError):
            session.learn(3, 0.3, engine="full")


def _engines(n, seed, method, max_candidates=None, pair_list=False):
    """The production engine and its full-span reference over one draw.

    Uncapped draws compile to the dense triangle store unless
    ``pair_list`` re-expresses them as a pair list; capped draws are
    pair lists either way.
    """
    dist = families.random_tiling_histogram(n, 3, rng=seed % 7 + 1, min_piece=2)
    params = GreedyParams(
        weight_sample_size=400, collision_sets=3, collision_set_size=300, rounds=8
    )
    samples = draw_greedy_samples(dist, params, seed)
    compiled = compile_greedy_sketches(
        samples, n, method=method, max_candidates=max_candidates
    )
    if pair_list and compiled.candidates.is_triangle:
        compiled = _pair_list_sketches(compiled)
    engines = (_GreedyEngine(compiled), _GreedyEngine(compiled, full_span=True))
    return engines, params.rounds


def _fresh_terms(engine):
    """A from-scratch full-grid tabulation of the left/right remainder
    terms over the engine's current segments (bypassing its cache), one
    scoring call per side."""
    grid = engine._grid
    seg_lo = np.asarray(engine._seg_lo, dtype=np.int64)
    seg_hi = np.asarray(engine._seg_hi, dtype=np.int64)
    assigned = np.asarray(engine._seg_assigned, dtype=bool)
    starts = grid[seg_lo]
    points = np.arange(grid.size, dtype=np.int64)
    ia = np.searchsorted(starts, grid, side="right") - 1
    ib = np.searchsorted(starts, grid - 1, side="right") - 1
    left = engine._piece_cost(seg_lo[ia], points, assigned[ia])
    right = engine._piece_cost(points, seg_hi[ib], assigned[ib])
    return (
        np.where(starts[ia] < grid, left, 0.0),
        np.where(grid[seg_hi[ib]] > grid, right, 0.0),
    )


def _fresh_costs(engine):
    """Every current segment priced by a scoring call of its own."""
    return [
        float(engine._piece_cost(np.asarray([lo]), np.asarray([hi]), assigned)[0])
        for lo, hi, assigned in zip(
            engine._seg_lo, engine._seg_hi, engine._seg_assigned
        )
    ]


def _float_bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _candidate_rel(engine):
    """``rel`` at the candidates: the dense store's upper triangle (the
    cells below its diagonal are never candidates and never read), or
    the pair-list store's flat vector."""
    rel = engine._store.rel
    if engine._cands.is_triangle:
        return rel[np.triu_indices(rel.shape[0])]
    return rel


class TestCachedTotalsProperty:
    """After every round, the cached state == a from-scratch recomputation.

    This is the dirty-span invariant stated in README.md ("Incremental
    scoring"): a clean grid point's cached remainder terms, and a clean
    candidate's cached ``rel``, must be bitwise equal to what a full
    re-tabulation and a full rescore would produce, round after round —
    on the dense triangle store and on the pair-list store alike.  The
    segments a commit creates stay unpriced until the next rescore, whose
    one scoring call prices them together with both remainder terms;
    every part must equal a scoring call of its own.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        method=st.sampled_from(["fast", "exhaustive"]),
        capped=st.booleans(),
        pair_list=st.booleans(),
    )
    def test_cached_rel_matches_full_rescore(self, seed, method, capped, pair_list):
        n = 32 + seed % 3 * 16
        (engine, reference), rounds = _engines(
            n, seed, method, max_candidates=150 if capped else None,
            pair_list=pair_list,
        )
        assert engine._cands.is_triangle == (not capped and not pair_list)
        for _ in range(rounds):
            # Only candidates overlapping the dirty span are rescored, and
            # the dense store counts upper-triangle cells, never the +inf
            # cells below the diagonal its rectangles sweep too.
            dirty = engine._cands.intersecting(engine._dirty_lo, engine._dirty_hi)
            # Exactly the last commit's segments (before round 1, the
            # whole-domain gap) wait for this rescore to price them.
            pending = engine._unpriced
            assert pending.stop > pending.start
            assert [
                index
                for index, cost in enumerate(engine._seg_cost)
                if cost is None
            ] == list(range(pending.start, pending.stop))
            rescored = engine.rescore()
            full = reference.rescore()
            assert rescored == dirty.size
            assert None not in engine._seg_cost
            assert _float_bits(engine._seg_cost) == _float_bits(_fresh_costs(engine))
            assert engine._seg_cost == reference._seg_cost
            # No candidate starts at the last grid point or ends at the
            # first, so those two entries are never read (nor kept fresh).
            left, right = _fresh_terms(engine)
            assert np.array_equal(engine._left_term[:-1], left[:-1])
            assert np.array_equal(engine._right_term[1:], right[1:])
            assert np.array_equal(_candidate_rel(engine), _candidate_rel(reference))
            # The production engine never rescans more than the reference.
            assert rescored <= full == engine._cands.size
            a = engine.commit(engine.argmin(), rescored)
            b = reference.commit(reference.argmin(), full)
            # Identical commit and trace (rescored differs by design).
            assert dataclasses.replace(a, rescored=0) == dataclasses.replace(
                b, rescored=0
            )
            assert engine.segments() == reference.segments()
            assert engine._seg_cost == reference._seg_cost

    def test_rescored_counts_shrink(self):
        """Steady-state rounds touch a strict subset of the candidates."""
        (engine, _), rounds = _engines(64, 5, "fast")
        reports = [engine.run_round() for _ in range(rounds)]
        total = engine._cands.size
        assert reports[0].rescored == total
        assert min(r.rescored for r in reports[1:]) < total


@settings(max_examples=100, deadline=None)
@example(costs=[0.0, -0.0, -0.0, 0.0])
@given(costs=st.lists(st.floats(width=64), min_size=1, max_size=30))
def test_segment_sums_match_a_cumsum_per_start(costs):
    """The one masked ``cumsum`` behind ``removed`` equals the per-start
    loop it replaced, bit for bit from the diagonal on: row ``a`` is
    ``cumsum(costs[a:])``, for any floats (signed zeros, infinities and
    NaN included).  Below the diagonal, which no score reads, every
    entry is a zero."""
    costs = np.asarray(costs)
    count = costs.size
    sums = _segment_sums(costs)
    for a in range(count):
        assert sums[a, a:].tobytes() == np.cumsum(costs[a:]).tobytes()
    assert np.all(sums[np.tril_indices(count, -1)] == 0.0)
