"""T12 — the out-of-core learn and the fleet learn: two kernel pairs.

Both pairs run in-process (README.md, "Architecture"):

* ``test_shard_learn_outofcore`` / ``_loop`` — one session, an
  out-of-core-scale pooled budget (~1M collision samples over a 64k
  domain), a high-``k`` learn grid.  Both twins build the same session
  and draw the same samples; only the scoring path varies: the
  production engine (cached per-grid-point score terms refreshed only
  over each round's dirty span) against its private full-span
  reference, which re-tabulates every grid point and rescores every
  candidate every round.  Byte-identical results, >= 2x.  Its
  ``max_candidates`` cap makes the candidates a pair list, so both
  twins run the engine's pair-list ``rel`` store (the dense triangle
  store has its own pair in ``bench_t2_greedy_fast``).
* ``test_shard_learn_fleet_64`` / ``_loop`` — 64 members learning a
  2-point grid through one fleet ``learn_many`` (pooled draws, dense
  compiles, every member's runs in one driver call) against 64 looped
  sessions, cold compile included.  Same engine on both sides, so the
  pair measures fleet batching alone.

Kernels come in ``<name>`` / ``<name>_loop`` pairs that feed
``BENCH_shard.json`` via ``benchmarks/record_shard_bench.py``; CI runs
the out-of-core pair through ``benchmarks/perf_guard.py`` (within-run
pair speedup >= 1.5x at smoke size).  The fleet pair is recorded but
not guarded: batching alone is worth ~1.1x.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized workload (8 streams,
shrunk pools) — same code and same pairing, minutes down to seconds.
"""

from __future__ import annotations

import os
from functools import lru_cache
from unittest import mock

import numpy as np

import repro.api.session as api_session
from repro.api import ArraySource, HistogramFleet, HistogramSession
from repro.core.greedy import _reference_learn
from repro.core.params import GreedyParams
from repro.distributions import families

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

FLEET_SIZE = 8 if SMOKE else 64
_SEEDS = list(range(FLEET_SIZE))

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


def _learn_shard():
    """The high-k grid on the production engine (cached score terms),
    one fresh session per call."""
    session = HistogramSession(
        _ooc_source(), OOC_N, rng=0, learn_budget=OOC_PARAMS
    )
    return session.learn_many(OOC_GRID, max_candidates=OOC_MAX_CANDIDATES)


def _learn_loop():
    """The same session draws through the full-span reference."""
    with mock.patch.object(api_session, "lockstep_learn", _reference_learn):
        return _learn_shard()


def _learn_fleet():
    """64 members x 2 grid points as one ``learn_many``."""
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
    """64-member ``learn_many``, cold compile included
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
