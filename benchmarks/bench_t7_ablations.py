"""T7 — greedy design ablations."""

from __future__ import annotations

from conftest import emit

from repro.api import HistogramSession
from repro.core.params import GreedyParams
from repro.distributions import families
from repro.experiments.ablations import run_t7


def test_t7_table(benchmark, quick_config):
    """Regenerate T7; every ablated variant must stay inside 8 eps."""
    result = benchmark.pedantic(run_t7, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    assert all(row[2] <= 8 * 0.25 for row in result.rows)


def test_single_collision_set_kernel(benchmark):
    """Micro: learning with r=1 (the median-of-r ablation arm)."""
    dist = families.zipf(256, 1.2)
    base = GreedyParams.from_paper(256, 4, 0.25, scale=0.05)
    params = GreedyParams(
        base.weight_sample_size, 1, base.collision_set_size, base.rounds
    )
    benchmark(
        lambda: HistogramSession(dist, 256, rng=1).learn(4, 0.25, params=params)
    )
