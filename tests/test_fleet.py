"""Equivalence of HistogramFleet against a looped-session reference.

The fleet contract (README.md, "Fleet serving"): every fleet operation
is *byte*-identical — verdicts, learned histograms, query logs, and
per-member memo-hit accounting — to looping
``HistogramSession(sources[f], n, rng=rngs[f], ...)`` over the members
with the same seeds.  Pinned here on deterministic fleets, a hypothesis
lockstep over random fleets (mixed sizes, metrics, epsilons, operation
orders), the compile kernels the fleet plants, and the cache
lifetime / invalidation rules the facade relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ArraySource, CountingSource, HistogramFleet, HistogramSession
from repro.core.flatness import FleetTesterSketches
from repro.core.params import GreedyParams, TesterParams
from repro.core.selection import _reference_min_k
from repro.core.tester import _reference_test, fleet_test_on_sketches
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.collision import (
    batched_interval_prefixes,
    dense_interval_prefixes,
)
from repro.samples.estimators import MultiSketch

TEST_PARAMS = TesterParams(num_sets=7, set_size=3_000)
LEARN_PARAMS = GreedyParams(
    weight_sample_size=4_000, collision_sets=5, collision_set_size=2_000, rounds=3
)


def make_fleet_and_sessions(n=128, fleet_size=6, seed=0, **kwargs):
    """A fleet plus its looped-session reference over the same seeds."""
    base = families.zipf(n, 1.0)
    rng = np.random.default_rng(seed)
    sources = [
        ArraySource(base.sample(20_000, np.random.default_rng(seed + 100 + f)), n)
        for f in range(fleet_size)
    ]
    seeds = [int(rng.integers(0, 2**31)) for _ in range(fleet_size)]
    fleet = HistogramFleet(sources, n, rngs=seeds, **kwargs)
    sessions = [
        HistogramSession(source, n, rng=member_seed, **kwargs)
        for source, member_seed in zip(sources, seeds)
    ]
    return fleet, sessions


def memo_stats(bundle, params):
    sketches = bundle._tester_compiled_cache[(params.num_sets, params.set_size)]
    return sketches.memo_hits, sketches.memo_misses, sketches.memo_size


class TestFleetEquivalence:
    """fleet == looped sessions, bit for bit, logs and accounting included."""

    def test_test_many_and_min_k(self):
        fleet, sessions = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        grid = [(2, 0.3), (4, 0.25), (6, 0.25)]
        assert fleet.test_many(grid, norm="l2") == [
            s.test_many(grid, norm="l2") for s in sessions
        ]
        assert fleet.min_k(0.3, max_k=8, norm="l2") == [
            s.min_k(0.3, max_k=8, norm="l2") for s in sessions
        ]
        # Memo accounting matches per member after the whole op sequence.
        for f, session in enumerate(sessions):
            assert memo_stats(fleet.bundle(f), TEST_PARAMS) == (
                memo_stats(session._bundle, TEST_PARAMS)
            )

    def test_sparse_budget_matches_sessions(self):
        """At a budget sparse in the domain (4 m <= n + 1) members compile
        into sorted keys, and the lockstep still equals looped sessions."""
        sparse = TesterParams(num_sets=5, set_size=30)
        fleet, sessions = make_fleet_and_sessions(test_budget=sparse)
        grid = [(2, 0.3), (4, 0.25)]
        assert fleet.test_many(grid, norm="l2") == [
            s.test_many(grid, norm="l2") for s in sessions
        ]
        assert fleet.test_l1(3, 0.3) == [s.test_l1(3, 0.3) for s in sessions]
        assert fleet.min_k(0.3, max_k=8, norm="l2") == [
            s.min_k(0.3, max_k=8, norm="l2") for s in sessions
        ]
        for f, session in enumerate(sessions):
            assert memo_stats(fleet.bundle(f), sparse) == (
                memo_stats(session._bundle, sparse)
            )
        slab = fleet._tester_fleet_cache[(sparse.num_sets, sparse.set_size)]
        assert slab.form == "sparse"
        assert slab.nbytes == 2 * fleet.size * (5 * 30 + 1) * 8

    def test_l1_tester(self):
        fleet, sessions = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        assert fleet.test_l1(3, 0.3) == [s.test_l1(3, 0.3) for s in sessions]
        assert fleet.min_k(0.3, max_k=6, norm="l1") == [
            s.min_k(0.3, max_k=6, norm="l1") for s in sessions
        ]

    def test_learn_and_learn_many(self):
        fleet, sessions = make_fleet_and_sessions(learn_budget=LEARN_PARAMS)
        grid = [(2, 0.3), (3, 0.25)]
        fleet_results = fleet.learn_many(grid)
        session_results = [s.learn_many(grid) for s in sessions]
        for fleet_member, session_member in zip(fleet_results, session_results):
            for a, b in zip(fleet_member, session_member):
                assert np.array_equal(a.histogram.boundaries, b.histogram.boundaries)
                assert np.array_equal(a.histogram.values, b.histogram.values)
                assert a.rounds == b.rounds
                assert list(a.priority_histogram.pieces()) == list(
                    b.priority_histogram.pieces()
                )

    def test_draw_accounting_matches_sessions(self):
        fleet, sessions = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        fleet.test_many([(2, 0.3), (4, 0.25)], norm="l2")
        for session in sessions:
            session.test_many([(2, 0.3), (4, 0.25)], norm="l2")
        assert fleet.samples_drawn == [s.samples_drawn for s in sessions]
        assert fleet.draw_events == [s.draw_events for s in sessions]
        # The whole grid issued one test-family draw event per member.
        assert all(events["test"] == 1 for events in fleet.draw_events)

    def test_full_engine_passthrough(self):
        """The lockstep path equals the per-query reference over each
        member's pooled sketch."""
        fleet, _ = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        tested = fleet.test_l2(3, 0.3)
        selected = fleet.min_k(0.3, max_k=5, norm="l2")
        multis = [
            MultiSketch.from_sample_sets(fleet.bundle(f).tester_sets(TEST_PARAMS), fleet.n)
            for f in range(fleet.size)
        ]
        assert tested == [
            _reference_test(multi, fleet.n, 3, 0.3, "l2", TEST_PARAMS) for multi in multis
        ]
        assert selected == [
            _reference_min_k(
                multi, fleet.n, 0.3, max_k=5, norm="l2", params=TEST_PARAMS
            )
            for multi in multis
        ]

    def test_interleaved_learn_test_matches_sessions(self):
        """Draw interleaving across families follows the op order."""
        fleet, sessions = make_fleet_and_sessions(
            test_budget=TEST_PARAMS, learn_budget=LEARN_PARAMS
        )
        fleet_learn = fleet.learn(2, 0.3)
        fleet_test = fleet.test_l2(3, 0.3)
        session_learn = [s.learn(2, 0.3) for s in sessions]
        session_test = [s.test_l2(3, 0.3) for s in sessions]
        assert fleet_test == session_test
        for a, b in zip(fleet_learn, session_learn):
            assert np.array_equal(a.histogram.values, b.histogram.values)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lockstep_random_fleets(seed):
    """Hypothesis lockstep: random fleets, mixed ops/metrics/epsilons.

    A random fleet size, a random op sequence mixing both norms,
    several epsilons, learn calls, min-k sweeps and calls on a random
    member subset — outputs and query logs must equal the looped
    single-session reference point for point, and each member's memo
    accounting must tally exactly.  A one-member subset steps the
    single-oracle search and a larger one the lockstep search, so here
    the two steppers share a member's memo inside one fleet.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(32, 128))
    fleet_size = int(rng.integers(1, 7))
    pieces = int(rng.integers(1, 5))
    dist = families.random_tiling_histogram(n, pieces, rng=seed % 17 + 1, min_piece=2)
    seeds = [int(rng.integers(0, 2**31)) for _ in range(fleet_size)]
    # Even r is legal too (the median is then a two-value mean), so r varies.
    params = TesterParams(num_sets=seed % 5 + 2, set_size=1_500)
    learn_params = GreedyParams(
        weight_sample_size=1_000, collision_sets=3, collision_set_size=800, rounds=2
    )
    fleet = HistogramFleet([dist] * fleet_size, n, rngs=seeds, test_budget=params)
    sessions = [
        HistogramSession(dist, n, rng=s, test_budget=params) for s in seeds
    ]

    num_ops = int(rng.integers(2, 5))
    for _ in range(num_ops):
        op = rng.choice(["l1", "l2", "min_k", "learn", "subset"])
        epsilon = float(rng.choice([0.2, 0.25, 0.3, 0.4]))
        k = int(rng.integers(1, max(n // 4, 2)))
        if op == "subset":
            size = int(rng.integers(1, fleet_size + 1))
            subset = [int(f) for f in rng.permutation(fleet_size)[:size]]
            norm = "l2" if rng.integers(2) else "l1"
            if rng.integers(2):
                max_k = int(rng.integers(1, n + 1))
                got = fleet.min_k(epsilon, max_k=max_k, norm=norm, members=subset)
                want = [
                    sessions[f].min_k(epsilon, max_k=max_k, norm=norm) for f in subset
                ]
            else:
                runner = f"test_{norm}"
                got = getattr(fleet, runner)(k, epsilon, members=subset)
                want = [getattr(sessions[f], runner)(k, epsilon) for f in subset]
            assert got == want
        elif op == "learn":
            got = fleet.learn(k, epsilon, params=learn_params)
            want = [s.learn(k, epsilon, params=learn_params) for s in sessions]
            for a, b in zip(got, want):
                assert np.array_equal(a.histogram.boundaries, b.histogram.boundaries)
                assert np.array_equal(a.histogram.values, b.histogram.values)
                assert a.rounds == b.rounds
        elif op == "min_k":
            norm = "l2" if rng.integers(2) else "l1"
            max_k = int(rng.integers(1, n + 1))
            assert fleet.min_k(epsilon, max_k=max_k, norm=norm) == [
                s.min_k(epsilon, max_k=max_k, norm=norm) for s in sessions
            ]
        else:
            runner = HistogramFleet.test_l2 if op == "l2" else HistogramFleet.test_l1
            sess_runner = (
                HistogramSession.test_l2 if op == "l2" else HistogramSession.test_l1
            )
            assert runner(fleet, k, epsilon) == [
                sess_runner(s, k, epsilon) for s in sessions
            ]

    key = (params.num_sets, params.set_size)
    for f, session in enumerate(sessions):
        fleet_cache = fleet.bundle(f)._tester_compiled_cache
        session_cache = session._bundle._tester_compiled_cache
        assert (key in fleet_cache) == (key in session_cache)
        if key in fleet_cache:
            a, b = fleet_cache[key], session_cache[key]
            assert (a.memo_hits, a.memo_misses, a.memo_size) == (
                b.memo_hits, b.memo_misses, b.memo_size
            )
            # Every probe was a hit or a miss; misses are distinct keys.
            assert a.memo_misses == a.memo_size


class TestDenseCompileKernels:
    """The counting pass equals the sort-based one, bit for bit."""

    def test_dense_interval_prefixes_match_batched(self):
        rng = np.random.default_rng(4)
        n = 97
        sets = [rng.integers(0, n, size=size) for size in (500, 500, 500)]
        grid = np.arange(n + 1, dtype=np.int64)
        dense = dense_interval_prefixes(sets, n)
        sorted_rows = batched_interval_prefixes(sets, n, grid)
        assert np.array_equal(dense[0], sorted_rows[0])
        assert np.array_equal(dense[1], sorted_rows[1])

    def test_dense_interval_prefixes_validation(self):
        with pytest.raises(InvalidParameterError):
            dense_interval_prefixes([np.array([1, 99])], 10)
        with pytest.raises(InvalidParameterError):
            dense_interval_prefixes([np.array([[1]])], 10)
        with pytest.raises(InvalidParameterError):
            dense_interval_prefixes([np.array([0])], 0)
        empty_counts, empty_pairs = dense_interval_prefixes([], 10)
        assert empty_counts.shape == (0, 11)
        assert empty_pairs.shape == (0, 11)

    def test_fleet_member_compile_matches_session_compile(self):
        """A slab of a larger fleet holds exactly what a session's
        one-member compile builds."""
        dist = families.sawtooth(48)
        sets = dist.sample_sets(3, 1_000, np.random.default_rng(2))
        reference = FleetTesterSketches(48, 3, 1_000, fleet_size=1).compile_member(
            0, [np.asarray(s) for s in sets]
        )
        fleet_sketches = FleetTesterSketches(48, 3, 1_000, fleet_size=2)
        member = fleet_sketches.compile_member(1, [np.asarray(s) for s in sets])
        member_meta, member_arrays = member.state()
        reference_meta, reference_arrays = reference.state()
        assert member_meta == reference_meta
        assert member_arrays.keys() == reference_arrays.keys()
        for name, array in member_arrays.items():
            assert np.array_equal(array, reference_arrays[name])
        assert fleet_sketches.member(1) is member
        with pytest.raises(InvalidParameterError):
            fleet_sketches.member(0)  # not compiled yet


class TestFleetCacheLifetime:
    """Per-member invalidation and plant/adopt coherence."""

    def test_invalidate_member_redraws_only_that_member(self):
        fleet, _ = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        fleet.test_l2(3, 0.3)
        events_before = [e["test"] for e in fleet.draw_events]
        fleet.invalidate(2)
        fleet.test_l2(3, 0.3)
        events_after = [e["test"] for e in fleet.draw_events]
        assert events_after[2] == events_before[2] + 1
        assert all(
            after == before
            for f, (after, before) in enumerate(zip(events_after, events_before))
            if f != 2
        )

    def test_repeat_op_is_all_memo_hits(self):
        fleet, _ = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        first = fleet.test_l2(4, 0.3)
        misses = [
            memo_stats(fleet.bundle(f), TEST_PARAMS)[1] for f in range(fleet.size)
        ]
        assert fleet.test_l2(4, 0.3) == first
        assert [
            memo_stats(fleet.bundle(f), TEST_PARAMS)[1] for f in range(fleet.size)
        ] == misses

    def test_bundle_compiled_member_is_adopted_with_memo(self):
        """A member whose bundle holds a compile the fleet did not plant
        (as a restore leaves it) keeps that object and its verdict memo."""
        fleet, _ = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        bundle = fleet.bundle(3)
        # Compile and search member 3's sets outside the fleet first.
        outside = FleetTesterSketches(
            fleet.n, TEST_PARAMS.num_sets, TEST_PARAMS.set_size, fleet_size=1
        )
        planted = outside.compile_member(0, bundle.tester_sets(TEST_PARAMS))
        (direct,) = fleet_test_on_sketches(outside, fleet.n, 4, 0.3, "l2", TEST_PARAMS)
        bundle.adopt_compiled_tester(TEST_PARAMS, planted)
        misses_before = planted.memo_misses
        results = fleet.test_l2(4, 0.3)
        assert results[3] == direct
        adopted = bundle._tester_compiled_cache[
            (TEST_PARAMS.num_sets, TEST_PARAMS.set_size)
        ]
        assert adopted is planted  # same object, memo preserved
        assert adopted.memo_misses == misses_before  # replayed from memo

    def test_restored_lone_member_call_is_not_mirrored(self, tmp_path):
        """A restored compile searched by a one-member call stays out of
        the slab (the search reads only the object); a later call over
        two members adopts the same object, memo included."""
        key = (TEST_PARAMS.num_sets, TEST_PARAMS.set_size)
        live, _ = make_fleet_and_sessions(fleet_size=3, test_budget=TEST_PARAMS)
        expected = live.test_l2(4, 0.3)
        live.snapshot(tmp_path / "fleet.snap")
        restored, _ = make_fleet_and_sessions(fleet_size=3, test_budget=TEST_PARAMS)
        restored.restore(tmp_path / "fleet.snap")
        planted = restored.bundle(0)._tester_compiled_cache[key]
        hits, misses = planted.memo_hits, planted.memo_misses

        assert restored.test_l2(4, 0.3, members=[0]) == [expected[0]]
        assert restored.min_k(0.3, max_k=6, norm="l2", members=[0]) == [
            live.min_k(0.3, max_k=6, norm="l2", members=[0])[0]
        ]
        slab = restored._tester_fleet_cache[key]
        assert slab.member_or_none(0) is None
        assert slab.nbytes == 0  # no stack allocated or copied
        assert planted.memo_misses == misses and planted.memo_hits > hits

        hits = planted.memo_hits
        assert restored.test_l2(4, 0.3, members=[0, 1]) == expected[:2]
        assert slab.member_or_none(0) is planted
        assert planted.memo_misses == misses and planted.memo_hits > hits
        assert restored.draw_events == live.draw_events

    def test_counting_sources_one_budget_per_member(self):
        base = families.zipf(64, 1.0)
        counters = [CountingSource(base) for _ in range(3)]
        fleet = HistogramFleet(counters, 64, rngs=[1, 2, 3], test_budget=TEST_PARAMS)
        fleet.test_many([(2, 0.3), (4, 0.25), (6, 0.2)], norm="l2")
        fleet.min_k(0.3, max_k=6, norm="l2")
        for counter in counters:
            assert counter.calls == TEST_PARAMS.num_sets
            assert counter.samples_drawn == TEST_PARAMS.total_samples


class TestFleetValidation:
    def test_bad_construction(self):
        dist = families.uniform(16)
        with pytest.raises(InvalidParameterError):
            HistogramFleet([], 16)
        with pytest.raises(InvalidParameterError):
            HistogramFleet([dist], 16, rngs=[1, 2])
        with pytest.raises(InvalidParameterError):
            HistogramFleet([dist], 16, rngs=[1], rng=2)

    def test_bad_ops(self):
        fleet = HistogramFleet([families.uniform(16)], 16, rngs=[1])
        with pytest.raises(InvalidParameterError):
            fleet.test_many([(2, 0.3)], norm="tv")
        with pytest.raises(InvalidParameterError):
            fleet.min_k(0.3, max_k=0)
        with pytest.raises(InvalidParameterError):
            fleet.min_k(0.3, norm="tv")

    def test_spawned_rngs_are_independent(self):
        dist = families.uniform(32)
        fleet = HistogramFleet(
            [dist, dist], 32, rng=7, test_budget=TesterParams(num_sets=3, set_size=64)
        )
        results = fleet.test_l2(2, 0.4)
        assert len(results) == 2
        assert fleet.size == 2


class TestMemberSubsets:
    """members= restricts ops; results equal the looped subset."""

    def test_subset_probes_match_sessions(self):
        fleet, sessions = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        subset = [4, 1]
        assert fleet.test_l2(3, 0.3, members=subset) == [
            sessions[4].test_l2(3, 0.3), sessions[1].test_l2(3, 0.3)
        ]
        assert fleet.min_k(0.3, max_k=6, norm="l2", members=subset) == [
            sessions[4].min_k(0.3, max_k=6, norm="l2"),
            sessions[1].min_k(0.3, max_k=6, norm="l2"),
        ]
        assert fleet.test_many([(2, 0.3)], norm="l2", members=[2]) == [
            sessions[2].test_many([(2, 0.3)], norm="l2")
        ]

    def test_subset_only_draws_listed_members(self):
        fleet, _ = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        fleet.test_l2(3, 0.3, members=[0, 2])
        events = [e["test"] for e in fleet.draw_events]
        assert events[0] == 1 and events[2] == 1
        assert all(e == 0 for f, e in enumerate(events) if f not in (0, 2))

    def test_bad_subset_rejected(self):
        fleet, _ = make_fleet_and_sessions(test_budget=TEST_PARAMS)
        with pytest.raises(InvalidParameterError):
            fleet.test_l2(3, 0.3, members=[99])

    def test_member_accessors_reject_out_of_range(self):
        """invalidate / generation / bundle validate their index the way
        members= does: -1 must not alias the last member."""
        fleet, _ = make_fleet_and_sessions(fleet_size=3, test_budget=TEST_PARAMS)
        fleet.test_l2(3, 0.3)
        generations = fleet.generations
        for bad in (-1, 3):
            for accessor in (fleet.invalidate, fleet.generation, fleet.bundle):
                with pytest.raises(InvalidParameterError, match=r"\[0, 3\)"):
                    accessor(bad)
        assert fleet.generations == generations  # no member was dropped

    @pytest.mark.parametrize("bad", [0.7, True, "1", np.float64(1.5)])
    def test_non_integer_members_are_refused(self, bad):
        """A member index is checked, not converted: 0.7, True and "1"
        must not silently select member 0 or 1."""
        fleet, _ = make_fleet_and_sessions(
            fleet_size=2, test_budget=TEST_PARAMS, learn_budget=LEARN_PARAMS
        )
        calls = [
            lambda: fleet.test_l2(3, 0.3, members=[bad]),
            lambda: fleet.test_l1(3, 0.3, members=[0, bad]),
            lambda: fleet.test_many([(2, 0.3)], members=[bad]),
            lambda: fleet.min_k(0.3, max_k=4, norm="l2", members=[bad]),
            lambda: fleet.learn(2, 0.3, members=[bad]),
            lambda: fleet.invalidate(bad),
            lambda: fleet.generation(bad),
            lambda: fleet.bundle(bad),
        ]
        for call in calls:
            with pytest.raises(InvalidParameterError, match=r"\[0, 2\)"):
                call()
        assert fleet.samples_drawn == [0, 0]  # nothing was drawn

    def test_integral_member_values_are_accepted(self):
        fleet, sessions = make_fleet_and_sessions(fleet_size=2, test_budget=TEST_PARAMS)
        assert fleet.test_l2(3, 0.3, members=[np.int64(1), 0.0]) == [
            sessions[1].test_l2(3, 0.3),
            sessions[0].test_l2(3, 0.3),
        ]


class TestRecompileDetachesOldMember:
    """Recompiling a slab must not mutate previously issued sketches."""

    def test_held_compiled_object_stays_consistent(self):
        fleet, _ = make_fleet_and_sessions(fleet_size=2, test_budget=TEST_PARAMS)
        first = fleet.test_l2(3, 0.3)
        key = (TEST_PARAMS.num_sets, TEST_PARAMS.set_size)
        held = fleet.bundle(0)._tester_compiled_cache[key]
        # Every prefix [0, x): the held object's whole count layout.
        stops = np.arange(fleet.n + 1)
        counts_before = held.interval_counts(np.zeros_like(stops), stops)
        verdict_before = held.query(0, 64, "l2", 0.3)
        # Invalidate and recompile member 0's slab from a fresh draw.
        fleet.invalidate(0)
        fleet.test_l2(3, 0.3)
        # The held (stale) object kept its own data and verdicts...
        counts_after = held.interval_counts(np.zeros_like(stops), stops)
        assert all(map(np.array_equal, counts_after, counts_before))
        assert held.query(0, 64, "l2", 0.3) == verdict_before
        # ...while the fleet serves a freshly compiled member.
        fresh = fleet.bundle(0)._tester_compiled_cache[key]
        assert fresh is not held
        assert first[1] == fleet.test_l2(3, 0.3)[1]  # member 1 untouched

    def test_held_sparse_object_stays_consistent(self):
        """The same for a sparse member, whose keys view its stack row."""
        sparse = TesterParams(num_sets=5, set_size=30)
        fleet, _ = make_fleet_and_sessions(fleet_size=3, test_budget=sparse)
        fleet.test_l2(3, 0.3)
        held = fleet.bundle(1)._tester_compiled_cache[(5, 30)]
        assert held.form == "sparse"
        starts, stops = np.triu_indices(fleet.n + 1)
        counts_before = held.interval_counts(starts, stops)
        state_before = {name: a.copy() for name, a in held.state()[1].items()}
        fleet.invalidate(1)
        fleet.test_l2(3, 0.3)
        counts_after = held.interval_counts(starts, stops)
        assert all(map(np.array_equal, counts_after, counts_before))
        for name, array in held.state()[1].items():
            assert np.array_equal(array, state_before[name])
        assert fleet.bundle(1)._tester_compiled_cache[(5, 30)] is not held
