"""Equivalence of the compiled tester against the per-query reference.

The compiled tester answers Algorithm 2's flatness queries from
precomputed ``(n + 1, r)`` prefix gathers with a verdict memo; the
private references (``_reference_test``, ``_reference_min_k``) re-run
the per-set searches on every probe over the same pooled
:class:`~repro.samples.estimators.MultiSketch`.  The contract is
*byte*-identity on verdicts **and query logs** (``TestResult`` equality
compares both), pinned here on fresh sessions, session grids, min-k
sweeps, a one-stream maintainer, and a hypothesis lockstep over random
``(n, k, eps)`` grids — plus the cache-lifetime rules (memo-hit
accounting, invalidation) the session relies on.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CountingSource, HistogramSession
from repro.core.flatness import (
    CompiledTesterSketches,
    FleetTesterSketches,
    flatness_oracle,
)

# Alias the paper-named ``test*`` functions so pytest does not collect them.
from repro.core.flatness import test_flatness_l1 as flatness_l1
from repro.core.flatness import test_flatness_l2 as flatness_l2
from repro.core.params import TesterParams
from repro.core.selection import _reference_min_k
from repro.core.tester import _reference_test
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch
from repro.streaming import FleetMaintainer

PARAMS = TesterParams(num_sets=9, set_size=8_000)

CASES = [
    ("4-hist", families.random_tiling_histogram(256, 4, rng=3, min_piece=8), 256),
    ("sawtooth", families.sawtooth(128), 128),
    ("spikes", families.spikes(256, 8), 256),
    ("zipf", families.zipf(192, 1.0), 192),
]


def make_sets(dist, rng):
    return dist.sample_sets(
        PARAMS.num_sets, PARAMS.set_size, np.random.default_rng(rng)
    )


def compile_sets(sets, n):
    """One member's compiled tester layout over raw sets."""
    compiled = FleetTesterSketches(n, len(sets), len(sets[0]), fleet_size=1)
    return compiled.compile_member(0, [np.asarray(s) for s in sets])


def pooled_sketch(bundle, params):
    """A bundle's pooled test-family draw as a per-query sketch."""
    return MultiSketch.from_sample_sets(bundle.tester_sets(params), bundle.n)


def reference(bundle, norm, k, epsilon, params=PARAMS):
    """The per-query reference over a bundle's pooled sketch."""
    multi = pooled_sketch(bundle, params)
    return _reference_test(multi, bundle.n, k, epsilon, norm, params)


def reference_min_k(bundle, epsilon, max_k, norm="l1", params=PARAMS):
    multi = pooled_sketch(bundle, params)
    return _reference_min_k(
        multi, bundle.n, epsilon, max_k=max_k, norm=norm, params=params
    )


class TestEngineEquivalence:
    """compiled == reference, bit for bit, verdicts and query logs."""

    @pytest.mark.parametrize("name,dist,n", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", [1, 23])
    def test_one_shot_l2(self, name, dist, n, seed):
        session = HistogramSession(dist, n, rng=seed)
        compiled = session.test_l2(4, 0.25, params=PARAMS)
        # partition, queries, verdict — everything
        assert compiled == reference(session._bundle, "l2", 4, 0.25)

    @pytest.mark.parametrize("name,dist,n", CASES, ids=[c[0] for c in CASES])
    def test_one_shot_l1(self, name, dist, n):
        session = HistogramSession(dist, n, rng=7)
        compiled = session.test_l1(4, 0.25, params=PARAMS)
        assert compiled == reference(session._bundle, "l1", 4, 0.25)

    def test_min_k_equivalence(self):
        dist = families.two_level(256, heavy_start=64, heavy_length=64)
        session = HistogramSession(dist, 256, rng=5)
        compiled = session.min_k(0.25, max_k=10, params=PARAMS)
        assert compiled == reference_min_k(session._bundle, 0.25, max_k=10)

    def test_compiled_queries_match_per_query_oracle(self):
        """Every (start, stop) agrees with the legacy one-shot flatness tests."""
        dist = families.zipf(96, 1.0)
        sets = make_sets(dist, 11)
        multi = MultiSketch.from_sample_sets(sets, 96)
        compiled = compile_sets(sets, 96)
        l2 = compiled.oracle("l2", 0.3)
        l1 = compiled.oracle("l1", 0.3, scale=0.01)
        rng = np.random.default_rng(0)
        for _ in range(60):
            start = int(rng.integers(0, 95))
            stop = int(rng.integers(start + 1, 97))
            assert l2(start, stop) == flatness_l2(multi, start, stop, 0.3)
            assert l1(start, stop) == flatness_l1(
                multi, start, stop, 0.3, scale=0.01
            )


class TestSessionEquivalence:
    """A (k, eps) grid through HistogramSession: each point equals the
    reference."""

    GRID = [(2, 0.3), (3, 0.3), (4, 0.25), (6, 0.25)]

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_test_many_grid(self, norm):
        dist = families.random_tiling_histogram(128, 4, rng=9, min_piece=4)
        session = HistogramSession(dist, 128, rng=3, test_budget=PARAMS)
        assert session.test_many(self.GRID, norm=norm) == [
            reference(session._bundle, norm, k, epsilon) for k, epsilon in self.GRID
        ]

    def test_engine_override_per_call(self):
        """The per-call engine override is gone; a compiled call after
        others on the same budget still equals the reference."""
        for method in (
            HistogramSession.test_l2,
            HistogramSession.test_l1,
            HistogramSession.test_many,
            HistogramSession.min_k,
        ):
            assert "engine" not in inspect.signature(method).parameters, method
        dist = families.sawtooth(128)
        session = HistogramSession(dist, 128, rng=2, test_budget=PARAMS)
        assert session.test_l2(3, 0.3) == reference(session._bundle, "l2", 3, 0.3)
        assert session.min_k(0.3, max_k=6) == reference_min_k(session._bundle, 0.3, max_k=6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lockstep_random_grids(seed):
    """Hypothesis lockstep: random (n, k, eps) grids, compiled vs reference.

    Verdicts and query logs must be identical point for point, and the
    shared compiled object's memo accounting must tally exactly: every
    probe is either a hit or a miss, and the misses are the distinct
    memo keys.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(32, 160))
    pieces = int(rng.integers(1, 6))
    dist = families.random_tiling_histogram(n, pieces, rng=seed % 13 + 1, min_piece=2)
    grid = [
        (int(rng.integers(1, n // 2 + 2)), float(rng.choice([0.2, 0.25, 0.3, 0.4])))
        for _ in range(3)
    ]
    # Even r is legal too (the median is then a two-value mean), so r varies.
    params = TesterParams(num_sets=seed % 5 + 2, set_size=2_000)
    compiled_session = HistogramSession(dist, n, rng=seed, test_budget=params)
    norm = "l2" if seed % 2 else "l1"
    a = compiled_session.test_many(grid, norm=norm)
    b = [reference(compiled_session._bundle, norm, k, e, params) for k, e in grid]
    assert a == b
    # Memo accounting on the session's shared compiled object.
    sketches = compiled_session._bundle._tester_compiled_cache[
        (params.num_sets, params.set_size)
    ]
    total_queries = sum(len(r.queries) for r in a)
    assert sketches.memo_hits + sketches.memo_misses == total_queries
    assert sketches.memo_misses == sketches.memo_size
    assert sketches.memo_hits == total_queries - sketches.memo_size


class TestMemoSharing:
    """The verdict memo is shared where the design says it is."""

    def test_repeat_call_is_all_hits(self):
        dist = families.zipf(128, 1.0)
        session = HistogramSession(dist, 128, rng=1, test_budget=PARAMS)
        first = session.test_l2(4, 0.3)
        sketches = session._bundle._tester_compiled_cache[
            (PARAMS.num_sets, PARAMS.set_size)
        ]
        misses_after_first = sketches.memo_misses
        second = session.test_l2(4, 0.3)
        assert first == second
        assert sketches.memo_misses == misses_after_first  # zero new work

    def test_grid_points_share_verdicts(self):
        """k only caps the piece count: larger k replays smaller k's probes."""
        dist = families.random_tiling_histogram(128, 4, rng=5, min_piece=8)
        session = HistogramSession(dist, 128, rng=1, test_budget=PARAMS)
        session.test_l2(2, 0.3)
        sketches = session._bundle._tester_compiled_cache[
            (PARAMS.num_sets, PARAMS.set_size)
        ]
        misses_small_k = sketches.memo_misses
        session.test_l2(6, 0.3)
        hits = sketches.memo_hits
        assert hits >= misses_small_k  # the k=2 search replayed entirely
        session.min_k(0.3, max_k=6, norm="l2")
        assert sketches.memo_misses == sketches.memo_size

    def test_distinct_epsilons_do_not_collide(self):
        dist = families.uniform(64)
        sets = make_sets(dist, 3)
        multi = MultiSketch.from_sample_sets(sets, 64)
        sketches = compile_sets(sets, 64)
        a = sketches.oracle("l2", 0.3)(0, 64)
        b = sketches.oracle("l2", 0.5)(0, 64)
        assert sketches.memo_misses == 2  # same interval, two keys
        assert a == flatness_l2(multi, 0, 64, 0.3)
        assert b == flatness_l2(multi, 0, 64, 0.5)


class TestCacheLifetime:
    """Compile-once semantics and invalidation through the session."""

    def test_one_compile_per_budget(self):
        counting = CountingSource(families.zipf(96, 1.0))
        session = HistogramSession(counting, 96, rng=1, test_budget=PARAMS)
        session.test_l2(3, 0.3)
        sketches_first = session._bundle._tester_compiled_cache[
            (PARAMS.num_sets, PARAMS.set_size)
        ]
        session.test_l1(4, 0.25)
        session.min_k(0.3, max_k=5)
        cache = session._bundle._tester_compiled_cache
        assert len(cache) == 1
        assert cache[(PARAMS.num_sets, PARAMS.set_size)] is sketches_first

    def test_invalidate_drops_tester_compile_cache(self):
        session = HistogramSession(
            families.zipf(96, 1.0), 96, rng=1, test_budget=PARAMS
        )
        session.test_l2(3, 0.3)
        assert session._bundle._tester_compiled_cache
        session.invalidate()
        assert session._bundle._tester_compiled_cache == {}
        session.test_l2(3, 0.3)  # recompiles from the fresh pool
        assert len(session._bundle._tester_compiled_cache) == 1

    def test_validation_happens_once_not_per_query(self):
        """Bad parameters fail at oracle creation, before any probe."""
        sets = make_sets(families.uniform(64), 1)
        multi = MultiSketch.from_sample_sets(sets, 64)
        sketches = compile_sets(sets, 64)
        with pytest.raises(InvalidParameterError):
            sketches.oracle("l2", 0.0)
        with pytest.raises(InvalidParameterError):
            sketches.oracle("l1", 0.3, scale=0.0)
        with pytest.raises(InvalidParameterError):
            sketches.oracle("tv", 0.3)
        with pytest.raises(InvalidParameterError):
            flatness_oracle(multi, "l2", 1.5)
        assert sketches.memo_misses == 0  # nothing ran

    def test_compile_matches_batched_interval_prefixes(self):
        """Compiling the raw sets equals the one-sort batched pass."""
        from repro.samples.collision import batched_interval_prefixes

        dist = families.zipf(64, 1.0)
        sets = dist.sample_sets(3, 1_000, np.random.default_rng(2))
        compiled = compile_sets(sets, 64)
        grid = np.arange(65, dtype=np.int64)
        count_rows, pair_rows = batched_interval_prefixes(sets, 64, grid)
        # Every prefix [0, x): the compile's counts on the whole grid.
        counts, pairs = compiled.interval_counts(np.zeros_like(grid), grid)
        assert np.array_equal(counts, count_rows.T)
        assert np.array_equal(pairs, pair_rows.T)
        assert compiled.set_size == 1_000

    def test_compiled_properties(self):
        sketches = compile_sets(make_sets(families.uniform(64), 1), 64)
        assert isinstance(sketches, CompiledTesterSketches)
        assert sketches.n == 64
        assert sketches.num_sets == PARAMS.num_sets
        assert sketches.set_size == PARAMS.set_size


class TestMaintainerPassthrough:
    """A one-stream maintainer tests its reservoir on the compiled path."""

    def _fed(self):
        dist = families.random_tiling_histogram(64, 3, rng=4, min_piece=8)
        maintainer = FleetMaintainer(
            1, 64, 3, refresh_every=1_000, reservoir_capacity=1_000, rng=8
        )
        maintainer.update_many(0, dist.sample(4_000, np.random.default_rng(9)))
        return maintainer

    def test_test_defaults_to_own_shape(self):
        maintainer = self._fed()
        [result] = maintainer.test()
        assert result.k == 3
        assert result.epsilon == 0.25
        assert result.norm == "l2"

    def test_engines_agree_over_the_reservoir(self):
        maintainer = self._fed()
        params = maintainer._tester_params(None)
        bundle = maintainer.fleet.bundle(0)
        assert maintainer.test(4, 0.3) == [reference(bundle, "l2", 4, 0.3, params)]
        assert maintainer.min_k(0.3, max_k=8) == [
            reference_min_k(bundle, 0.3, max_k=8, params=params)
        ]

    def test_probes_share_session_budget(self):
        maintainer = self._fed()
        maintainer.test()
        drawn = maintainer.fleet.samples_drawn
        maintainer.min_k(max_k=8)  # same budget: no new draws
        assert maintainer.fleet.samples_drawn == drawn

    def test_update_invalidates_before_next_probe(self):
        maintainer = self._fed()
        maintainer.test()
        events = maintainer.fleet.draw_events[0]["test"]
        maintainer.update(0, 5)
        maintainer.test()
        assert maintainer.fleet.draw_events[0]["test"] == events + 1

    def test_empty_reservoir_raises(self):
        maintainer = FleetMaintainer(1, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError):
            maintainer.test()
        with pytest.raises(InvalidParameterError):
            maintainer.min_k()
