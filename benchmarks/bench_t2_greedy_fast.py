"""T2 — fast greedy (Theorem 2) vs exhaustive.

The kernel benchmarks track the one greedy engine (README.md,
"Incremental scoring"), each learn a one-run lockstep through a fresh
session's ``learn``: ``test_fast_greedy_kernel_large`` is the headline
grid point — millions of candidates over many rounds, where dirty-span
rescoring pays — and feeds ``BENCH_greedy.json`` (see
``benchmarks/record_greedy_bench.py``).

``test_fast_greedy_kernel_large_pairs`` is its within-run twin: the same
draw and prefixes with the uncapped candidates handed over as a pair
list, so only the ``rel`` store varies (the dense triangle matrix
against the flat pair list the engine keeps for capped sets).  CI holds
the pair's speedup to a floor through ``benchmarks/perf_guard.py``.

``test_fast_greedy_kernel_serving`` is the other end: a fresh session
learn the size of one a serving fleet member runs on every rebuild (a
512-item reservoir, ``GreedyParams(256, 5, 128, 8)``, n = 4,096, about
300 points per triangle axis), where per-call overhead rather than
rescoring arithmetic sets the cost.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

import repro.core.greedy as greedy
from repro.api import ArraySource, HistogramSession
from repro.core.candidates import CandidateSet, sample_endpoint_candidates
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.experiments.learning import run_t2

LARGE_N = 8_192
LARGE_PARAMS = GreedyParams(
    weight_sample_size=2_500,
    collision_sets=9,
    collision_set_size=2_500,
    rounds=12,
)


def test_t2_table(benchmark, quick_config):
    """Regenerate the T2 table; fast excess must stay within 8 eps."""
    result = benchmark.pedantic(run_t2, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    for row in result.rows:
        assert row[2] <= row[4]  # excess fast <= bound 8 eps

def test_fast_greedy_kernel(benchmark):
    """Micro: one fast learn on n=512 (sample-endpoint candidates)."""
    dist = families.zipf(512, 1.0)
    benchmark(
        lambda: HistogramSession(dist, 512, rng=1, scale=0.02, method="fast").learn(4, 0.25)
    )


SERVING_N = 4_096
SERVING_PARAMS = GreedyParams(
    weight_sample_size=256, collision_sets=5, collision_set_size=128, rounds=8
)


def _serving_source():
    """512 observations shaped like a serving stream's reservoir: 70 % in
    one hot window ``n / 32`` wide, the rest uniform over the domain."""
    rng = np.random.default_rng(7)
    values = rng.integers(0, SERVING_N, size=512)
    hot = rng.random(512) < 0.7
    values[hot] = 1_000 + rng.integers(0, SERVING_N // 32, size=int(hot.sum()))
    return ArraySource(values, SERVING_N)


def _learn_serving(source):
    session = HistogramSession(source, SERVING_N, rng=1, method="fast")
    return session.learn(8, 0.3, params=SERVING_PARAMS)


def test_fast_greedy_kernel_serving(benchmark):
    """Micro: one fresh session learn at a serving member's size (K ~ 300)."""
    source = _serving_source()
    result = benchmark(_learn_serving, source)
    axis = (np.sqrt(8 * result.num_candidates + 1) - 1) / 2
    assert 250 <= axis <= 350
    assert len(result.rounds) == SERVING_PARAMS.rounds


def _learn_large(dist):
    session = HistogramSession(dist, LARGE_N, rng=1, method="fast")
    return session.learn(8, 0.2, params=LARGE_PARAMS)


def _pair_list_candidates(*args, **kwargs):
    """Theorem 2's candidates as an explicit pair list."""
    candidates = sample_endpoint_candidates(*args, **kwargs)
    return CandidateSet(candidates.grid, candidates.lo, candidates.hi)


def test_fast_greedy_kernel_large(benchmark):
    """Macro: the largest grid point — ~2.4M candidates, 12 rounds."""
    dist = families.zipf(LARGE_N, 1.0)
    result = benchmark.pedantic(_learn_large, args=(dist,), rounds=3, iterations=1)
    assert result.num_candidates > 1_000_000


def test_fast_greedy_kernel_large_pairs(benchmark, monkeypatch):
    """The same learn on the pair-list store (the dense store's twin)."""
    dist = families.zipf(LARGE_N, 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(greedy, "sample_endpoint_candidates", _pair_list_candidates)
        result = benchmark.pedantic(_learn_large, args=(dist,), rounds=3, iterations=1)
    dense = _learn_large(dist)
    assert np.array_equal(result.histogram.values, dense.histogram.values)
    assert result.rounds == dense.rounds


def test_exhaustive_greedy_kernel(benchmark):
    """Macro: one exhaustive learn (Algorithm 1) on n=512, C(n+1, 2) candidates."""
    dist = families.zipf(512, 1.0)
    result = benchmark.pedantic(
        lambda: HistogramSession(
            dist, 512, rng=1, scale=0.02, method="exhaustive"
        ).learn(4, 0.25),
        rounds=1,
        iterations=1,
    )
    assert result.num_candidates == 512 * 513 // 2
