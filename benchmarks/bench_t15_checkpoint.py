"""T15 — checkpoints: differential vs full writes under low churn.

The differential-checkpoint claim (README.md, "Persistence &
warm-start"): when few members mutate between checkpoints, a
``checkpoint_mode="delta"`` write must re-write only the churned
members' slabs — carrying every unchanged payload as a (parent-file,
offset, crc32) reference — and so land **<= 25% of the full-snapshot
bytes** at <= 10% member churn.  Kernels come in ``<name>`` /
``<name>_full`` pairs that feed ``BENCH_checkpoint.json`` via
``benchmarks/record_checkpoint_bench.py``; the guarded ``speedup``
there is the *bytes* ratio (full / delta), which is deterministic
given the fleet shape, with wall time recorded alongside.

The scenario is the steady-state serving loop: a warmed
:class:`repro.serving.HistogramService` (every member ingested and
compiled, one full parent checkpoint on disk) takes a small ingest
wave — ``max(1, streams // 10)`` members — and checkpoints.  The
delta kernel extends its parent chain (rounds stay below
``repro.persist.format.MAX_CHAIN``, where the chain compacts); the
full kernel re-writes everything each round.  Restores through the chain are byte-identity
pinned by the conformance suite's snapshot axis; this bench prices
the write path.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized fleet (8 streams — one
churned member is 12.5% churn, so the smoke bytes ratio is guarded at
a lower floor than the 64-stream record's 4x).
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from functools import lru_cache

import numpy as np

from repro.serving import HistogramService

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N = 4_096
STREAMS = 8 if SMOKE else 64
CAPACITY = 2_048
HISTORY = CAPACITY  # one full reservoir per member before the parent
K = 8
EPSILON = 0.3
SEED = 15
CHURN_MEMBERS = max(1, STREAMS // 10)  # <= 10% churn at full size
CHURN_ITEMS = 256

_churn_rng = np.random.default_rng(SEED + 1)


@lru_cache(maxsize=None)
def _service(mode: str) -> HistogramService:
    """One warmed service per mode with a full parent checkpoint."""
    directory = tempfile.mkdtemp(prefix=f"repro_t15_{mode}_")
    atexit.register(shutil.rmtree, directory, ignore_errors=True)
    service = HistogramService(
        [f"stream-{member:02d}" for member in range(STREAMS)],
        N,
        K,
        EPSILON,
        reservoir_capacity=CAPACITY,
        rng=SEED,
        snapshot_dir=directory,
        checkpoint_mode=mode,
    )
    rng = np.random.default_rng(SEED)
    for member in range(STREAMS):
        service.maintainer.update_many(member, rng.integers(0, N, size=HISTORY))
    service.maintainer.test(K, EPSILON)  # compile every member's sketches
    service.checkpoint()  # the full parent every delta diffs against
    return service


def _churn_and_checkpoint(service: HistogramService) -> str:
    """One steady-state window: a small ingest wave, then a checkpoint."""
    for member in range(CHURN_MEMBERS):
        service.maintainer.update_many(
            member, _churn_rng.integers(0, N, size=CHURN_ITEMS)
        )
    return service.checkpoint()


def _bench(benchmark, mode: str) -> str:
    service = _service(mode)
    full_bytes = os.path.getsize(service.snapshot_path)
    written = benchmark.pedantic(
        lambda: _churn_and_checkpoint(service),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["streams"] = STREAMS
    benchmark.extra_info["churn_members"] = CHURN_MEMBERS
    benchmark.extra_info["checkpoint_bytes"] = os.path.getsize(written)
    benchmark.extra_info["full_parent_bytes"] = full_bytes
    return written


if SMOKE:

    def test_checkpoint_delta_8(benchmark):
        """8-stream delta checkpoint under one-member churn, CI size."""
        written = _bench(benchmark, "delta")
        assert os.path.basename(written).startswith("service-delta-")

    def test_checkpoint_delta_8_full(benchmark):
        """The full-rewrite baseline for the 8-stream checkpoint."""
        written = _bench(benchmark, "full")
        assert os.path.basename(written) == "service.snap"

else:

    def test_checkpoint_delta_64(benchmark):
        """64-stream delta checkpoint under <= 10% churn — the
        headline pair; acceptance bar: delta bytes <= 25% of full."""
        written = _bench(benchmark, "delta")
        assert os.path.basename(written).startswith("service-delta-")
        full_bytes = os.path.getsize(_service("delta").snapshot_path)
        assert os.path.getsize(written) <= 0.25 * full_bytes

    def test_checkpoint_delta_64_full(benchmark):
        """The full-rewrite baseline for the 64-stream checkpoint."""
        written = _bench(benchmark, "full")
        assert os.path.basename(written) == "service.snap"
