"""T4 — the l1 tiling k-histogram tester (Theorem 4)."""

from __future__ import annotations

from conftest import emit

from repro.api import HistogramSession
from repro.core.params import TesterParams
from repro.distributions import families
from repro.experiments.testing import run_t4


def test_t4_table(benchmark, quick_config):
    """Regenerate T4; YES rows accept >= 2/3, NO rows accept <= 1/3."""
    result = benchmark.pedantic(run_t4, args=(quick_config,), rounds=1, iterations=1)
    emit(result)
    for row in result.rows:
        if row[1] == "YES":
            assert row[3] >= 2 / 3
        else:
            assert row[3] <= 1 / 3


def test_l1_tester_kernel(benchmark):
    """Micro: one l1 test run (r=15, m=30k) on n=256, a fresh session
    per call."""
    dist = families.sawtooth(256)
    params = TesterParams(num_sets=15, set_size=30_000)
    benchmark(
        lambda: HistogramSession(dist, 256, rng=1).test_l1(4, 0.25, params=params)
    )
