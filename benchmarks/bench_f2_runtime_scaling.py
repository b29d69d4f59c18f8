"""F2 — runtime scaling with the domain size n."""

from __future__ import annotations

import pytest
from conftest import emit

from repro.api import HistogramSession
from repro.baselines.voptimal import voptimal_histogram
from repro.distributions import families
from repro.experiments.learning import run_f2


def test_f2_table(benchmark, quick_config):
    """Regenerate the F2 scaling table."""
    result = benchmark.pedantic(run_f2, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    assert len(result.rows) >= 2


@pytest.mark.parametrize("n", [128, 256, 512])
def test_fast_greedy_scaling(benchmark, n):
    """The figure's fast-greedy series, point by point."""
    dist = families.random_tiling_histogram(n, 4, 13, min_piece=max(n // 32, 1))
    benchmark(
        lambda: HistogramSession(dist, n, rng=1, scale=0.05, method="fast").learn(4, 0.25)
    )


@pytest.mark.parametrize("n", [128, 256, 512])
def test_dp_scaling(benchmark, n):
    """The figure's DP baseline series (O(n^2 k))."""
    dist = families.random_tiling_histogram(n, 4, 13, min_piece=max(n // 32, 1))
    benchmark(lambda: voptimal_histogram(dist.pmf, 4, norm="l2"))
