"""T10 — the compiled tester vs the per-query reference.

Each workload is benchmarked twice over one cached draw of raw sample
sets.  The compiled tester compiles those sets every round into a
one-member :class:`~repro.core.flatness.FleetTesterSketches`
(``compile_member``, the one tester compile) and searches it with
``fleet_test_on_sketches`` — the path a fresh session's first tester
call takes, draws aside — so every round pays the cold cost.  The
private per-query reference ``_reference_test`` searches a
:class:`~repro.samples.estimators.MultiSketch` prebuilt once over the
same sets.  The pairs feed ``BENCH_tester.json``
via ``benchmarks/record_tester_bench.py``.  Three workloads, two in each
compiled form (:func:`~repro.core.flatness.tester_form`):

* a 4-point l2 ``test_many``-style grid (the session batch shape;
  acceptance bar: the compiled pair must show >= 3x), dense;
* one large l1 test on a sawtooth — Algorithm 2's worst case, committing
  ``k`` short pieces at ~14 binary-search probes each, dense;
* the same 4-point grid over sets sparse in the domain (5 x 819 at
  n = 65,536, the serving budget of a 4,096-slot reservoir), which
  compile into sorted keys.

Results are asserted byte-identical to the reference on every round.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.flatness import FleetTesterSketches
from repro.core.params import TesterParams
from repro.core.tester import _reference_test, fleet_test_on_sketches
from repro.distributions import families
from repro.samples.estimators import MultiSketch

GRID_N = 4_096
GRID_PARAMS = TesterParams(num_sets=15, set_size=60_000)
GRID = [(2, 0.3), (4, 0.25), (6, 0.25), (8, 0.2)]

LARGE_N = 16_384
LARGE_PARAMS = TesterParams(num_sets=21, set_size=120_000)
LARGE_K = 64
LARGE_EPS = 0.25

SPARSE_N = 65_536
SPARSE_PARAMS = TesterParams(num_sets=5, set_size=819)


@lru_cache(maxsize=None)
def _grid_sets() -> tuple:
    dist = families.zipf(GRID_N, 1.0)
    return tuple(
        dist.sample_sets(
            GRID_PARAMS.num_sets, GRID_PARAMS.set_size, np.random.default_rng(1)
        )
    )


@lru_cache(maxsize=None)
def _large_sets() -> tuple:
    dist = families.sawtooth(LARGE_N)
    return tuple(
        dist.sample_sets(
            LARGE_PARAMS.num_sets, LARGE_PARAMS.set_size, np.random.default_rng(2)
        )
    )


@lru_cache(maxsize=None)
def _sparse_sets() -> tuple:
    dist = families.zipf(SPARSE_N, 1.0)
    return tuple(
        dist.sample_sets(
            SPARSE_PARAMS.num_sets, SPARSE_PARAMS.set_size, np.random.default_rng(3)
        )
    )


@lru_cache(maxsize=None)
def _grid_multi() -> MultiSketch:
    return MultiSketch.from_sample_sets(_grid_sets(), GRID_N)


@lru_cache(maxsize=None)
def _large_multi() -> MultiSketch:
    return MultiSketch.from_sample_sets(_large_sets(), LARGE_N)


@lru_cache(maxsize=None)
def _sparse_multi() -> MultiSketch:
    return MultiSketch.from_sample_sets(_sparse_sets(), SPARSE_N)


def _compile(sets, n: int, params: TesterParams) -> FleetTesterSketches:
    """A one-member fleet compiled from ``sets`` (cold every round)."""
    compiled = FleetTesterSketches(n, params.num_sets, params.set_size, fleet_size=1)
    compiled.compile_member(0, list(sets))
    return compiled


def _grid_compiled():
    compiled = _compile(_grid_sets(), GRID_N, GRID_PARAMS)
    return [
        fleet_test_on_sketches(compiled, GRID_N, k, eps, "l2", GRID_PARAMS)[0]
        for k, eps in GRID
    ]


def _grid_full():
    multi = _grid_multi()
    return [
        _reference_test(multi, GRID_N, k, eps, "l2", GRID_PARAMS) for k, eps in GRID
    ]


def _large_compiled():
    compiled = _compile(_large_sets(), LARGE_N, LARGE_PARAMS)
    return fleet_test_on_sketches(
        compiled, LARGE_N, LARGE_K, LARGE_EPS, "l1", LARGE_PARAMS
    )[0]


def _large_full():
    return _reference_test(
        _large_multi(), LARGE_N, LARGE_K, LARGE_EPS, "l1", LARGE_PARAMS
    )


def _sparse_compiled():
    compiled = _compile(_sparse_sets(), SPARSE_N, SPARSE_PARAMS)
    assert compiled.form == "sparse"
    return [
        fleet_test_on_sketches(compiled, SPARSE_N, k, eps, "l2", SPARSE_PARAMS)[0]
        for k, eps in GRID
    ]


def _sparse_full():
    multi = _sparse_multi()
    return [
        _reference_test(multi, SPARSE_N, k, eps, "l2", SPARSE_PARAMS)
        for k, eps in GRID
    ]


def test_tester_grid_kernel(benchmark):
    """4-point l2 grid on the compiled tester (cold compile included)."""
    results = benchmark.pedantic(_grid_compiled, rounds=5, iterations=1, warmup_rounds=1)
    assert results == _grid_full()  # byte-identical verdicts and logs


def test_tester_grid_kernel_full(benchmark):
    """4-point l2 grid on the per-query reference path."""
    results = benchmark.pedantic(_grid_full, rounds=5, iterations=1, warmup_rounds=1)
    assert len(results) == len(GRID)


def test_tester_l1_large_kernel(benchmark):
    """One large l1 sawtooth test on the compiled tester."""
    result = benchmark.pedantic(_large_compiled, rounds=2, iterations=1, warmup_rounds=1)
    assert result == _large_full()


def test_tester_l1_large_kernel_full(benchmark):
    """One large l1 sawtooth test on the per-query reference path."""
    result = benchmark.pedantic(_large_full, rounds=2, iterations=1, warmup_rounds=1)
    assert result.num_flatness_queries > 500  # the query-heavy regime


def test_tester_sparse_grid_kernel(benchmark):
    """4-point l2 grid over sparse sets on the compiled tester (cold
    compile into sorted keys included)."""
    results = benchmark.pedantic(_sparse_compiled, rounds=5, iterations=1, warmup_rounds=1)
    assert results == _sparse_full()  # byte-identical verdicts and logs


def test_tester_sparse_grid_kernel_full(benchmark):
    """4-point l2 grid over sparse sets on the per-query reference path."""
    results = benchmark.pedantic(_sparse_full, rounds=5, iterations=1, warmup_rounds=1)
    assert len(results) == len(GRID)
