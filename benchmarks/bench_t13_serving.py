"""T13 — serving: coalesced vs request-at-a-time on a skewed workload.

The serving claim (README.md, "Serving"): replaying the seeded
64-stream refresh-storm workload through :class:`repro.serving.HistogramService`
with coalescing on (``max_batch`` deep admission windows folded into
fleet batch ops) must beat the request-at-a-time reference
(``max_batch=1`` — the *same* code path, windows of one) on
throughput, byte-identical responses included.  Kernels come in
``<name>`` / ``<name>_serial`` pairs that feed ``BENCH_serve.json``
via ``benchmarks/record_serving_bench.py``; each kernel's replay
report (p50/p99 latency, throughput) rides along as
``extra_info``.

The second claim (same README section): on the *re-query* workload —
dashboard-style clients replaying recent probes (``requery_bias``)
against rarely-mutated streams at low client concurrency — the
generation-keyed response cache must beat the uncached coalesced
service.  Low concurrency is the regime the cache exists for: with
few requests in flight the coalescer cannot form deep windows, so
every repeat probe queued uncached pays the full per-window cost
(linger, batch planning, a memoised fleet probe) that a cache hit
answers at admission.  The pair holds every serving knob fixed and
varies only ``cache_capacity`` (the ``_serial`` twin runs cache-off,
*not* request-at-a-time); acceptance bar: >= 1.5x.  Hits are
byte-identical to cold executions (pinned by the conformance suite's
cache axis), so the speedup is pure avoided work.

The workload (``repro.serving.WorkloadConfig``): Pareto-skewed
popularity over 64 streams, periodic refresh storms (an ingest wave
over a popularity-sampled cohort, then a probe wave re-probing it —
mostly ``min_k`` sweeps, some ``test`` / ``uniformity``), closed-loop
replay with enough concurrent clients to keep admission windows full.
Learn chains are pinned off here: ``learn`` is batch-neutral (greedy
rounds dominate; nothing amortises across members), so it measures
the same in both modes and only dilutes the pair — the conformance
suite, not the bench, covers it.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized workload (8 streams,
tiny trace, ``max_batch=16``) — same code, minutes down to seconds.
"""

from __future__ import annotations

import asyncio
import os
from functools import lru_cache

from repro.serving import (
    HistogramService,
    ServiceConfig,
    WorkloadConfig,
    WorkloadGenerator,
    replay,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    STREAMS, REQUESTS, CLIENTS, MAX_BATCH = 8, 64, 16, 16
    WARMUP_BATCH = 512
else:
    STREAMS, REQUESTS, CLIENTS, MAX_BATCH = 64, 768, 160, 160
    WARMUP_BATCH = 4096

WORKLOAD = WorkloadConfig(
    streams=STREAMS,
    requests=REQUESTS,
    seed=0,
    n=4_096,
    k=8,
    epsilon=0.3,
    mix=(
        ("ingest", 2.0),
        ("test", 1.5),
        ("min_k", 8.0),
        ("uniformity", 0.3),
        ("selectivity", 0.0),
        ("learn", 0.0),
    ),
    alpha=1.2,
    l1_fraction=0.0,
    chain_after_test=0.0,
    burst_every=160,
    burst_len=128,
    ingest_batch=48,
    warmup_batch=WARMUP_BATCH,
)

# The re-query workload: mostly probes replaying a recently issued one
# (``requery_bias``) against rarely-mutated streams — dashboard-style
# repeat read traffic, replayed by a handful of closed-loop clients so
# admission windows stay shallow and per-window cost is on the request
# path.  Selectivity joins the mix so range probes are cached too;
# ingests stay in, at a low weight and with rare short storms (a
# replayed probe racing a mutation on its stream must fence, not go
# stale, and every mutation re-opens the compile/learn path both twins
# pay).  The domain is smaller than the storm's: the pair prices the
# serving layer on memoised repeat traffic, not member compiles.
if SMOKE:
    REQUERY_REQUESTS, REQUERY_BURST_EVERY, REQUERY_BURST_LEN = 1_024, 512, 16
else:
    REQUERY_REQUESTS, REQUERY_BURST_EVERY, REQUERY_BURST_LEN = 4_096, 1_024, 32
REQUERY_CLIENTS = 4

REQUERY_WORKLOAD = WorkloadConfig(
    streams=STREAMS,
    requests=REQUERY_REQUESTS,
    seed=1,
    n=1_024,
    k=8,
    epsilon=0.3,
    mix=(
        ("ingest", 0.3),
        ("test", 1.5),
        ("min_k", 8.0),
        ("uniformity", 0.3),
        ("selectivity", 1.2),
        ("learn", 0.0),
    ),
    alpha=1.2,
    l1_fraction=0.0,
    chain_after_test=0.0,
    requery_bias=0.85,
    burst_every=REQUERY_BURST_EVERY,
    burst_len=REQUERY_BURST_LEN,
    ingest_batch=48,
    warmup_batch=512 if SMOKE else 1_024,
)

_WORKLOADS = {"storm": WORKLOAD, "requery": REQUERY_WORKLOAD}


@lru_cache(maxsize=None)
def _trace(workload: str = "storm"):
    """The seeded event list (cached; each pair replays the same)."""
    return WorkloadGenerator(_WORKLOADS[workload]).trace()


def _replay(
    max_batch: int,
    *,
    workload: str = "storm",
    cache_capacity: int = 0,
    clients: int | None = None,
):
    """One full replay through a fresh service at the given window.

    Returns ``(report, stats)`` — the replay report plus the service's
    closing counters (cache hits/misses for the requery pair).  The
    storm kernels pin ``cache_capacity=0`` so they keep
    measuring coalescing alone; the requery pair varies only the cache.
    """
    config = _WORKLOADS[workload]

    async def run():
        service = HistogramService(
            WorkloadGenerator(config).stream_names,
            config.n,
            config.k,
            config.epsilon,
            config=ServiceConfig(
                max_batch=max_batch,
                max_linger_us=500.0,
                max_queue=4_096,
                cache_capacity=cache_capacity,
            ),
            rng=config.seed,
        )
        async with service:
            report = await replay(
                service,
                _trace(workload),
                clients=CLIENTS if clients is None else clients,
            )
            return report, dict(service.stats)

    return asyncio.run(run())


def _record(benchmark, report) -> None:
    benchmark.extra_info["p50_us"] = round(report.p50_us, 1)
    benchmark.extra_info["p99_us"] = round(report.p99_us, 1)
    benchmark.extra_info["throughput_rps"] = round(report.throughput_rps, 1)


def test_serve_storm_64(benchmark):
    """The skewed storm workload, coalesced (the headline kernel)."""
    report, _ = benchmark.pedantic(
        lambda: _replay(MAX_BATCH), rounds=3, iterations=1, warmup_rounds=1
    )
    _record(benchmark, report)
    assert report.ok == report.requests  # every request answered, no errors


def test_serve_storm_64_serial(benchmark):
    """The same workload request-at-a-time (``max_batch=1``)."""
    report, _ = benchmark.pedantic(
        lambda: _replay(1), rounds=3, iterations=1, warmup_rounds=1
    )
    _record(benchmark, report)
    assert report.ok == report.requests


def test_serve_requery_64(benchmark):
    """The re-query workload with the response cache on.

    Same coalescing window and client count as its ``_serial`` twin;
    the only knob that differs is ``cache_capacity`` — the speedup is
    repeat probes answered at admission instead of queued through an
    admission window.
    """
    report, stats = benchmark.pedantic(
        lambda: _replay(
            MAX_BATCH,
            workload="requery",
            cache_capacity=8_192,
            clients=REQUERY_CLIENTS,
        ),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    _record(benchmark, report)
    lookups = stats["cache_hits"] + stats["cache_misses"]
    benchmark.extra_info["cache_hits"] = stats["cache_hits"]
    benchmark.extra_info["cache_hit_rate"] = round(
        stats["cache_hits"] / max(lookups, 1), 3
    )
    assert report.ok == report.requests
    assert stats["cache_hits"] > 0


def test_serve_requery_64_serial(benchmark):
    """The same re-query workload, same windows and clients, cache off.

    The ``_serial`` suffix is the recorder's pairing convention; here
    the twin disables the *cache* (``cache_capacity=0``), not
    coalescing — both kernels run the full admission window.
    """
    report, stats = benchmark.pedantic(
        lambda: _replay(
            MAX_BATCH,
            workload="requery",
            cache_capacity=0,
            clients=REQUERY_CLIENTS,
        ),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    _record(benchmark, report)
    assert report.ok == report.requests
    assert stats["cache_hits"] == 0
