"""T11 — fleet serving: HistogramFleet vs a looped-session baseline.

The fleet claim (README.md, "Fleet serving"): answering a serving sweep
— a ``(k, epsilon)`` tester grid in both norms plus min-k selection —
for 64 streams over one shared domain through one
:class:`~repro.api.HistogramFleet` must beat looping a fresh
:class:`~repro.api.HistogramSession` per stream, cold compile included,
while returning byte-identical results (verdicts and query logs).
Kernels come in ``<name>`` / ``<name>_loop`` pairs that
feed ``BENCH_fleet.json`` via ``benchmarks/record_fleet_bench.py``.

Workloads:

* ``test_fleet_serving_64`` — the tester sweep over 64 bootstrap
  streams (the headline pair).  A session is a one-member fleet, so
  both sides compile each member with the same ``compile_member``; the
  pair measures the 64-member lockstep search against 64 one-member
  searches; ``BENCH_fleet.json`` records the speedup;
* ``test_fleet_intake_64`` — reservoir intake on 64 streams through
  ``FleetMaintainer.update_many``: a 4,096-item fill per stream, then
  48-item batches, the serving benchmark's ingest pattern.  Its twin
  feeds the same items through per-item ``update``; both must leave
  identical reservoirs (the batched Algorithm R step is byte-identical
  to the loop).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.api import ArraySource, HistogramFleet, HistogramSession
from repro.core.params import TesterParams
from repro.distributions import families
from repro.streaming.fleet import FleetMaintainer

N = 4_096
FLEET_SIZE = 64
STREAM_LENGTH = 100_000
TEST_PARAMS = TesterParams(num_sets=15, set_size=8_000)
L2_GRID = [
    (k, eps)
    for k in (4, 8)
    for eps in (0.2, 0.225, 0.25, 0.275, 0.3, 0.325, 0.35, 0.375)
]
L1_GRID = [(k, eps) for k in (4, 8) for eps in (0.2, 0.25, 0.3, 0.35)]

INTAKE_CAPACITY = 4_096
INTAKE_BATCH = 48
INTAKE_BATCHES = 32  # steady-state batches per stream after the fill


@lru_cache(maxsize=None)
def _sources() -> tuple[ArraySource, ...]:
    """64 bootstrap streams: observed columns of a zipf base (cached;
    both kernels of a pair serve the same streams)."""
    base = families.zipf(N, 1.0)
    return tuple(
        ArraySource(base.sample(STREAM_LENGTH, np.random.default_rng(1_000 + f)), N)
        for f in range(FLEET_SIZE)
    )


_SEEDS = list(range(FLEET_SIZE))


def _serving_fleet():
    """The tester sweep through one fleet (cold compile every call)."""
    fleet = HistogramFleet(_sources(), N, rngs=_SEEDS, test_budget=TEST_PARAMS)
    l2 = fleet.test_many(L2_GRID, norm="l2")
    l1 = fleet.test_many(L1_GRID, norm="l1")
    min_k_l2 = fleet.min_k(0.3, max_k=8, norm="l2")
    min_k_l1 = fleet.min_k(0.3, max_k=8, norm="l1")
    return l2, l1, min_k_l2, min_k_l1


def _serving_loop():
    """The same sweep, one fresh session per stream (the reference)."""
    l2, l1, min_k_l2, min_k_l1 = [], [], [], []
    for source, seed in zip(_sources(), _SEEDS):
        session = HistogramSession(source, N, rng=seed, test_budget=TEST_PARAMS)
        l2.append(session.test_many(L2_GRID, norm="l2"))
        l1.append(session.test_many(L1_GRID, norm="l1"))
        min_k_l2.append(session.min_k(0.3, max_k=8, norm="l2"))
        min_k_l1.append(session.min_k(0.3, max_k=8, norm="l1"))
    return l2, l1, min_k_l2, min_k_l1


@lru_cache(maxsize=None)
def _intake_batches() -> tuple:
    """``(member, batch)`` in arrival order: every stream's fill, then
    round-robin steady-state batches (shared by the intake pair)."""
    rng = np.random.default_rng(4_000)
    sizes = (INTAKE_CAPACITY,) + (INTAKE_BATCH,) * INTAKE_BATCHES
    return tuple(
        (member, rng.integers(0, N, size=size))
        for size in sizes
        for member in range(FLEET_SIZE)
    )


def _intake_maintainer() -> FleetMaintainer:
    return FleetMaintainer(FLEET_SIZE, N, 4, reservoir_capacity=INTAKE_CAPACITY, rng=11)


def _intake_setup():
    """``pedantic`` set-up: a fresh maintainer per round, built untimed."""
    return (_intake_maintainer(),), {}


def _intake_batched(maintainer):
    for member, batch in _intake_batches():
        maintainer.update_many(member, batch)
    return maintainer


def _intake_loop(maintainer):
    for member, batch in _intake_batches():
        for value in batch.tolist():
            maintainer.update(member, value)
    return maintainer


def _reservoir_contents(maintainer) -> list[bytes]:
    return [reservoir.contents().tobytes() for reservoir in maintainer._reservoirs]


def test_fleet_serving_64(benchmark):
    """64-stream tester sweep through the fleet (cold compile included)."""
    results = benchmark.pedantic(_serving_fleet, rounds=3, iterations=1, warmup_rounds=1)
    assert results == _serving_loop()  # byte-identical verdicts and logs


def test_fleet_serving_64_loop(benchmark):
    """The looped-session baseline for the 64-stream tester sweep."""
    results = benchmark.pedantic(_serving_loop, rounds=3, iterations=1, warmup_rounds=1)
    assert len(results[0]) == FLEET_SIZE


def test_fleet_intake_64(benchmark):
    """64-stream reservoir intake through batched ``update_many``."""
    maintainer = benchmark.pedantic(
        _intake_batched, setup=_intake_setup, rounds=3, iterations=1, warmup_rounds=1
    )
    reference = _intake_loop(_intake_maintainer())
    assert _reservoir_contents(maintainer) == _reservoir_contents(reference)


def test_fleet_intake_64_loop(benchmark):
    """The per-item ``update`` baseline for the 64-stream intake."""
    maintainer = benchmark.pedantic(
        _intake_loop, setup=_intake_setup, rounds=3, iterations=1, warmup_rounds=1
    )
    assert maintainer.items_seen == [
        INTAKE_CAPACITY + INTAKE_BATCH * INTAKE_BATCHES
    ] * FLEET_SIZE
