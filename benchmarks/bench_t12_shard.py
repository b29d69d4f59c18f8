"""T12 — the out-of-core learn: one kernel pair.

The pair runs in-process (README.md, "Architecture"):

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

The kernels come as a ``<name>`` / ``<name>_loop`` pair that feeds
``BENCH_shard.json`` via ``benchmarks/record_shard_bench.py``; CI runs
the pair through ``benchmarks/perf_guard.py`` (within-run pair speedup
>= 1.5x at smoke size).

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized workload (shrunk pools) —
same code and same pairing, minutes down to seconds.
"""

from __future__ import annotations

import os
from functools import lru_cache
from unittest import mock

import numpy as np

import repro.api.fleet as api_fleet
from repro.api import ArraySource, HistogramSession
from repro.core.greedy import _reference_learn
from repro.core.params import GreedyParams
from repro.distributions import families

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

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


@lru_cache(maxsize=None)
def _ooc_source() -> ArraySource:
    """One wide column for the out-of-core learn pair."""
    base = families.zipf(OOC_N, 1.0)
    return ArraySource(base.sample(OOC_STREAM, np.random.default_rng(5_000)), OOC_N)


def _learn_shard():
    """The high-k grid on the production engine (cached score terms),
    one fresh session per call."""
    session = HistogramSession(
        _ooc_source(), OOC_N, rng=0, learn_budget=OOC_PARAMS
    )
    return session.learn_many(OOC_GRID, max_candidates=OOC_MAX_CANDIDATES)


def _learn_loop():
    """The same session draws through the full-span reference."""
    with mock.patch.object(api_fleet, "lockstep_learn", _reference_learn):
        return _learn_shard()


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

