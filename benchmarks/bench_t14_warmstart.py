"""T14 — warm-start: restoring a fleet snapshot vs cold compile.

The persistence claim (README.md, "Persistence & warm-start"): a
restarted 64-stream serving fleet that restores its mmap snapshot
reaches its first byte-identical response faster than rebuilding cold —
replaying the retained stream history through every reservoir (refresh
rebuilds included) and recompiling every member's tester sketches.
The recorded ratio is ~3.6x, with the replay going through the batched
reservoir intake; CI guards the smoke-sized pair at 1.5x.
Kernels come in ``<name>`` / ``<name>_cold`` pairs that feed
``BENCH_warmstart.json`` via ``benchmarks/record_warmstart_bench.py``.

The workload is the restart scenario end to end: construct the
maintainer tree, bring the state back (restore vs replay), and answer
one full-fleet tester sweep — the time-to-first-response a rolling
restart actually pays.  Each stream's history is one refresh cycle
(``4 * capacity`` items, the maintainer's default ``refresh_every``);
the replay is deterministic given the maintainer seed, so the cold
rebuild reproduces the snapshotted fleet bit for bit and the pair's
results are asserted equal once per run.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized workload (8 streams).
"""

from __future__ import annotations

import atexit
import os
from functools import lru_cache

import numpy as np

from repro.streaming.fleet import FleetMaintainer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N = 4_096
STREAMS = 8 if SMOKE else 64
CAPACITY = 4_096
HISTORY = 4 * CAPACITY  # one default refresh cycle per stream
K = 8
EPSILON = 0.3
SEED = 14


@lru_cache(maxsize=None)
def _batches() -> tuple:
    """One retained-history batch per stream (shared by the pair)."""
    return tuple(
        np.random.default_rng(3_000 + f).integers(0, N, size=HISTORY)
        for f in range(STREAMS)
    )


def _fresh() -> FleetMaintainer:
    return FleetMaintainer(
        STREAMS, N, K, EPSILON, reservoir_capacity=CAPACITY, rng=SEED
    )


def _cold():
    """Cold rebuild: replay every stream's history, compile, answer."""
    maintainer = _fresh()
    for f, batch in enumerate(_batches()):
        maintainer.update_many(f, batch)
    return maintainer.test(K, EPSILON)


@lru_cache(maxsize=None)
def _snapshot_path() -> str:
    """Snapshot one warmed fleet (built exactly like the cold kernel)."""
    maintainer = _fresh()
    for f, batch in enumerate(_batches()):
        maintainer.update_many(f, batch)
    maintainer.test(K, EPSILON)
    path = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), f"repro_warmstart_{os.getpid()}.snap"
    )
    maintainer.snapshot(path)
    atexit.register(lambda: os.path.exists(path) and os.remove(path))
    return path


def _warm():
    """Warm start: restore the snapshot, answer the same sweep."""
    maintainer = _fresh()
    maintainer.restore(_snapshot_path())
    return maintainer.test(K, EPSILON)


def _bench_warm(benchmark):
    path = _snapshot_path()
    results = benchmark.pedantic(_warm, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["streams"] = STREAMS
    benchmark.extra_info["history_items"] = HISTORY
    benchmark.extra_info["snapshot_bytes"] = os.path.getsize(path)
    assert results == _cold()  # byte-identical first response


def _bench_cold(benchmark):
    results = benchmark.pedantic(_cold, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["streams"] = STREAMS
    benchmark.extra_info["history_items"] = HISTORY
    assert len(results) == STREAMS


if SMOKE:

    def test_warmstart_fleet_8(benchmark):
        """8-stream warm start (restore + sweep), CI smoke size."""
        _bench_warm(benchmark)

    def test_warmstart_fleet_8_cold(benchmark):
        """The cold-rebuild baseline for the 8-stream warm start."""
        _bench_cold(benchmark)

else:

    def test_warmstart_fleet_64(benchmark):
        """64-stream warm start (restore + sweep) — the headline pair;
        recorded at ~3.6x over the cold rebuild."""
        _bench_warm(benchmark)

    def test_warmstart_fleet_64_cold(benchmark):
        """The cold-rebuild baseline for the 64-stream warm start."""
        _bench_cold(benchmark)
