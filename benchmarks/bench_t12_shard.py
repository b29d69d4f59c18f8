"""T12 — the parallel shard engine: executor-driven fleets and sessions.

Three kernel pairs ride the ``ShardedSketch`` +
:class:`~repro.api.ParallelExecutor` engine and the greedy learner
(README.md, "Architecture"):

* ``test_shard_serving_64`` / ``_loop`` — the tester headline: the
  64-stream serving sweep of ``bench_t11_fleet`` driven through a fleet
  with a ``workers=4`` executor (member compiles fanned over
  shared-memory slabs) must beat the looped-session baseline by >= 2x
  while returning byte-identical results (recorded 2.3-2.8x depending
  on machine load).
* ``test_shard_learn_outofcore`` / ``_loop`` — one session, an
  out-of-core-scale pooled budget (~1M collision samples over a 64k
  domain, compiled shard by shard through the executor), a high-``k``
  learn grid.  Both twins build the same session and draw the same
  samples; only the scoring path varies: the production engine (cached
  per-grid-point score terms refreshed only over each round's dirty
  span) against its private full-span reference, which re-tabulates
  every grid point and rescores every candidate every round.
  Byte-identical results, >= 2x.  Its ``max_candidates`` cap makes the
  candidates a pair list, so both twins run the engine's pair-list
  ``rel`` store (the dense triangle store has its own pair in
  ``bench_t2_greedy_fast``).
* ``test_shard_learn_fleet_64`` / ``_loop`` — 64 members learning a
  2-point grid through one fleet ``learn_many`` (pooled draws, dense
  compiles, every member's rounds advanced together) against 64 looped
  sessions, cold compile included.  Same engine and no executor on
  either side, so the pair measures fleet batching alone; an executor
  only costs time at this size.

Kernels come in ``<name>`` / ``<name>_loop`` pairs that feed
``BENCH_shard.json`` via ``benchmarks/record_shard_bench.py``; CI runs
the out-of-core pair through ``benchmarks/perf_guard.py`` (within-run
pair speedup >= 1.5x at smoke size).  The fleet pair is recorded but
not guarded: batching alone is worth ~1.1x.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized workload (8 streams,
shrunk pools) — same code and same pairing, minutes down to seconds.
"""

from __future__ import annotations

import atexit
import os
from functools import lru_cache
from unittest import mock

import numpy as np

import repro.api.session as api_session
from repro.api import (
    ArraySource,
    HistogramFleet,
    HistogramSession,
    ParallelExecutor,
    ShardPlan,
)
from repro.core.greedy import _reference_learn
from repro.core.params import GreedyParams, TesterParams
from repro.distributions import families

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N = 4_096
FLEET_SIZE = 8 if SMOKE else 64
STREAM_LENGTH = 20_000 if SMOKE else 100_000
TEST_PARAMS = (
    TesterParams(num_sets=7, set_size=3_000)
    if SMOKE
    else TesterParams(num_sets=15, set_size=8_000)
)
L2_GRID = [
    (k, eps)
    for k in (4, 8)
    for eps in (0.2, 0.225, 0.25, 0.275, 0.3, 0.325, 0.35, 0.375)
]
L1_GRID = [(k, eps) for k in (4, 8) for eps in (0.2, 0.25, 0.3, 0.35)]
_SEEDS = list(range(FLEET_SIZE))

# One pool for the whole module: the serving plane keeps its workers
# hot across sweeps (pool spin-up happens inside the warmup round).
EXECUTOR = ParallelExecutor(4, plan=ShardPlan(4))
atexit.register(EXECUTOR.close)

# The out-of-core learn pair: a wide domain so the greedy grid is large
# (the full-span reference's per-round cost is a full-grid tabulation
# plus a rescore of every candidate), a high-k grid so most rounds touch
# a small dirty span, and a candidate cap that keeps the candidate
# rescore from drowning the per-round grid differential.
if SMOKE:
    OOC_N, OOC_STREAM, OOC_MAX_CANDIDATES = 16_384, 40_000, 25_000
    OOC_PARAMS = GreedyParams(
        weight_sample_size=75_000,
        collision_sets=5,
        collision_set_size=40_000,
        rounds=2,
    )
else:
    OOC_N, OOC_STREAM, OOC_MAX_CANDIDATES = 65_536, 120_000, 100_000
    OOC_PARAMS = GreedyParams(
        weight_sample_size=300_000,
        collision_sets=5,
        collision_set_size=150_000,
        rounds=2,
    )
OOC_GRID = [(16, 0.25), (24, 0.2), (32, 0.25), (48, 0.25)]

# The fleet learn pair: near-uniform streams maximise distinct grid
# endpoints per member, so each member's compile and rounds are real
# work on both sides of the pair.
LEARN_N = 16_384
LEARN_GRID = [(16, 0.25), (32, 0.25)]
if SMOKE:
    LEARN_STREAM, LEARN_MAX_CANDIDATES = 15_000, 8_000
    LEARN_PARAMS = GreedyParams(
        weight_sample_size=15_000,
        collision_sets=7,
        collision_set_size=4_000,
        rounds=2,
    )
else:
    LEARN_STREAM, LEARN_MAX_CANDIDATES = 30_000, 16_000
    LEARN_PARAMS = GreedyParams(
        weight_sample_size=30_000,
        collision_sets=7,
        collision_set_size=8_000,
        rounds=2,
    )


@lru_cache(maxsize=None)
def _sources() -> tuple[ArraySource, ...]:
    """Bootstrap streams: observed columns of a zipf base (cached;
    both kernels of a pair serve the same streams)."""
    base = families.zipf(N, 1.0)
    return tuple(
        ArraySource(base.sample(STREAM_LENGTH, np.random.default_rng(1_000 + f)), N)
        for f in range(FLEET_SIZE)
    )


@lru_cache(maxsize=None)
def _ooc_source() -> ArraySource:
    """One wide column for the out-of-core learn pair."""
    base = families.zipf(OOC_N, 1.0)
    return ArraySource(base.sample(OOC_STREAM, np.random.default_rng(5_000)), OOC_N)


@lru_cache(maxsize=None)
def _learn_sources() -> tuple[ArraySource, ...]:
    """Near-uniform streams for the fleet learn pair."""
    base = families.zipf(LEARN_N, 0.5)
    return tuple(
        ArraySource(
            base.sample(LEARN_STREAM, np.random.default_rng(2_000 + f)), LEARN_N
        )
        for f in range(FLEET_SIZE)
    )


def _serving_shard():
    """The t11 tester sweep through one executor-driven fleet."""
    fleet = HistogramFleet(
        _sources(), N, rngs=_SEEDS, test_budget=TEST_PARAMS, executor=EXECUTOR
    )
    l2 = fleet.test_many(L2_GRID, norm="l2")
    l1 = fleet.test_many(L1_GRID, norm="l1")
    min_k_l2 = fleet.min_k(0.3, max_k=8, norm="l2")
    min_k_l1 = fleet.min_k(0.3, max_k=8, norm="l1")
    return l2, l1, min_k_l2, min_k_l1


def _serving_loop():
    """The same sweep, one fresh serial session per stream."""
    l2, l1, min_k_l2, min_k_l1 = [], [], [], []
    for source, seed in zip(_sources(), _SEEDS):
        session = HistogramSession(source, N, rng=seed, test_budget=TEST_PARAMS)
        l2.append(session.test_many(L2_GRID, norm="l2"))
        l1.append(session.test_many(L1_GRID, norm="l1"))
        min_k_l2.append(session.min_k(0.3, max_k=8, norm="l2"))
        min_k_l1.append(session.min_k(0.3, max_k=8, norm="l1"))
    return l2, l1, min_k_l2, min_k_l1


def _learn_shard():
    """The high-k grid on the production engine (cached score terms),
    one fresh session with a sharded compile per call."""
    session = HistogramSession(
        _ooc_source(), OOC_N, rng=0, learn_budget=OOC_PARAMS, executor=EXECUTOR
    )
    return session.learn_many(OOC_GRID, max_candidates=OOC_MAX_CANDIDATES)


def _learn_loop():
    """The same session draws through the full-span reference."""
    with mock.patch.object(api_session, "lockstep_learn", _reference_learn):
        return _learn_shard()


def _learn_fleet():
    """64 members x 2 grid points as one ``learn_many`` lockstep."""
    fleet = HistogramFleet(
        _learn_sources(), LEARN_N, rngs=_SEEDS, learn_budget=LEARN_PARAMS
    )
    return fleet.learn_many(LEARN_GRID, max_candidates=LEARN_MAX_CANDIDATES)


def _learn_fleet_loop():
    """The same grid, one fresh session per member."""
    return [
        HistogramSession(
            source, LEARN_N, rng=seed, learn_budget=LEARN_PARAMS
        ).learn_many(LEARN_GRID, max_candidates=LEARN_MAX_CANDIDATES)
        for source, seed in zip(_learn_sources(), _SEEDS)
    ]


def _assert_same_histograms(results, reference):
    for result, expected in zip(results, reference):
        assert np.array_equal(result.histogram.values, expected.histogram.values)
        assert np.array_equal(
            result.histogram.boundaries, expected.histogram.boundaries
        )


def test_shard_serving_64(benchmark):
    """64-stream sweep, workers=4 executor (bar: >= 2x over the loop)."""
    results = benchmark.pedantic(
        _serving_shard, rounds=4, iterations=1, warmup_rounds=1
    )
    assert results == _serving_loop()  # byte-identical verdicts and logs


def test_shard_serving_64_loop(benchmark):
    """The looped-session baseline for the 64-stream sweep."""
    results = benchmark.pedantic(
        _serving_loop, rounds=4, iterations=1, warmup_rounds=1
    )
    assert len(results[0]) == FLEET_SIZE


def test_shard_learn_outofcore(benchmark):
    """Out-of-core-scale learn grid on the production engine
    (bar: >= 2x over the full-span reference)."""
    results = benchmark.pedantic(
        _learn_shard, rounds=2, iterations=1, warmup_rounds=1
    )
    _assert_same_histograms(results, _learn_loop())


def test_shard_learn_outofcore_loop(benchmark):
    """The full-span reference over the same session draws."""
    results = benchmark.pedantic(
        _learn_loop, rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(results) == len(OOC_GRID)


def test_shard_learn_fleet_64(benchmark):
    """64-member ``learn_many`` lockstep, cold compile included
    (recorded, no bar: fleet batching alone)."""
    results = benchmark.pedantic(
        _learn_fleet, rounds=2, iterations=1, warmup_rounds=1
    )
    for member, reference in zip(results, _learn_fleet_loop()):
        _assert_same_histograms(member, reference)


def test_shard_learn_fleet_64_loop(benchmark):
    """The looped-session baseline for the fleet learn."""
    results = benchmark.pedantic(
        _learn_fleet_loop, rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(results) == FLEET_SIZE
