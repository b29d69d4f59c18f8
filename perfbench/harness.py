"""Reference, measured replays and metrics for ``run.py``.

Imported by ``run.py`` once the repository's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from repro.serving.requests import canonical

import loadgen
import workloads
from ledger import IdleSelector, Ledger

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUPS = 3  # set-ups timed per untraced replay
WARMUP_CLIENTS = 64
MIB = 2**20


@dataclass
class Reference:
    prefix: tuple
    body: tuple
    samples: int
    primed: str | None  # the snapshot measured services warm-start from


@dataclass
class Replay:
    traced: bool
    setups: list  # seconds of each set-up; the last one served the replay
    cpu_s: float  # body only
    traced_cpu_s: float  # set-up plus body, for the overhead
    outcome: object
    samples: int
    rebuilds: int
    stats: dict
    start: float
    end: float
    ledger: object = None
    problems: list = field(default_factory=list)


def _samples(service) -> int:
    return sum(service.maintainer.fleet.samples_drawn)


async def reference(workload, plan, seed, work_dir) -> Reference:
    """The request-at-a-time response log, and the primed snapshot."""
    snapshot_dir = tempfile.mkdtemp(prefix="reference-", dir=work_dir) if workload.primed else None
    primed = None
    service = workloads.service(workload, plan, seed, reference=True, snapshot_dir=snapshot_dir)
    async with service:
        prefix = [await service.submit(request) for request in plan.prefix]
        if workload.primed:
            primed = os.path.join(work_dir, "primed.snap")
            os.replace(service.checkpoint(), primed)
        drawn = _samples(service)
        body = [await service.submit(request) for _, request in plan.body]
        drawn = _samples(service) - drawn
    if snapshot_dir is not None:
        shutil.rmtree(snapshot_dir)
    return Reference(
        prefix=tuple(canonical(r) for r in prefix),
        body=tuple(canonical(r) for r in body),
        samples=drawn,
        primed=primed,
    )


async def set_up(workload, plan, seed, snapshot_dir, steps):
    """A fresh service that can answer, its set-up responses, and the time."""
    start = perf_counter()
    service = workloads.service(workload, plan, seed, snapshot_dir=snapshot_dir)
    await service.start()
    prefix = [] if workload.primed else await loadgen.submit_all(service, plan.prefix, steps)
    return service, prefix, perf_counter() - start


async def replay(
    workload, plan, seed, ref: Reference, work_dir, selector, traced, warmup=False
) -> Replay:
    """One measured replay through a fresh service, checked against ``ref``.

    An untraced replay first sets up ``SETUPS - 1`` services it discards
    unused, so ``setup_s`` is a median of several set-ups per replay.  A
    ``warmup`` replay drives the body through a closed loop of
    ``WARMUP_CLIENTS`` instead of the workload's own load.
    """
    snapshot_dir = None
    if workload.primed:
        snapshot_dir = tempfile.mkdtemp(prefix="replay-", dir=work_dir)
        shutil.copyfile(ref.primed, os.path.join(snapshot_dir, "service.snap"))
    ledger = Ledger() if traced else None
    steps = ledger.steps if traced else loadgen.untraced
    setups, prefixes = [], []
    for _ in range(0 if traced else SETUPS - 1):
        gc.collect()
        spare, prefix, seconds = await set_up(workload, plan, seed, snapshot_dir, steps)
        await spare.close(drain=False)  # drain=False writes no checkpoint
        del spare
        setups.append(seconds)
        prefixes.append(prefix)
    gc.collect()
    try:
        if traced:
            ledger.install()
            selector.ledger = ledger
        cpu0 = process_time()
        start = perf_counter()
        service, prefix, seconds = await set_up(workload, plan, seed, snapshot_dir, steps)
        setups.append(seconds)
        prefixes.append(prefix)
        drawn, rebuilds = _samples(service), service.maintainer.rebuilds
        cpu1 = process_time()
        if warmup:
            outcome = await loadgen.closed_loop(service, plan.body, WARMUP_CLIENTS, steps)
        elif workload.loop == "open":
            outcome = await loadgen.open_loop(service, plan.body, workload.offered_rps, steps)
        else:
            outcome = await loadgen.closed_loop(service, plan.body, workload.clients, steps)
        cpu2 = process_time()
        end = perf_counter()
    finally:
        if traced:
            selector.ledger = None
            ledger.uninstall()
    record = Replay(
        traced=traced,
        setups=setups,
        cpu_s=cpu2 - cpu1,
        traced_cpu_s=cpu2 - cpu0,
        outcome=outcome,
        samples=_samples(service) - drawn,
        rebuilds=service.maintainer.rebuilds - rebuilds,
        stats=service.stats,
        start=start,
        end=end,
        ledger=ledger,
    )
    if workload.primed and not service.warm_started:
        record.problems.append(f"warm start failed: {service.restore_error}")
    await service.close()
    if snapshot_dir is not None:
        shutil.rmtree(snapshot_dir)
    expected = () if workload.primed else ref.prefix
    if any(tuple(canonical(r) for r in prefix) != expected for prefix in prefixes):
        record.problems.append("set-up responses differ from the reference")
    body = tuple(canonical(r) for r in outcome.responses)
    if body != ref.body:
        first = next(i for i, (a, b) in enumerate(zip(body, ref.body)) if a != b)
        record.problems.append(f"response {first} differs from the reference")
    if record.samples != ref.samples:
        record.problems.append(
            f"drew {record.samples} samples, the reference drew {ref.samples}"
        )
    return record


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def end_to_end(replays, body_len) -> dict:
    """Each timing is the median over the run's replays or set-ups."""

    def median(value):
        return statistics.median(value(r) for r in replays)

    return {
        "setup_s": (statistics.median(x for r in replays for x in r.setups), "s"),
        "p50_ms": (median(lambda r: _percentile(r.outcome.latencies, 50)) * 1e3, "ms"),
        "p99_ms": (median(lambda r: _percentile(r.outcome.latencies, 99)) * 1e3, "ms"),
        "throughput_rps": (median(lambda r: len(r.outcome.latencies) / r.outcome.wall_s), "req/s"),
        "cpu_ms_per_request": (median(lambda r: r.cpu_s / body_len) * 1e3, "ms"),
        "samples_per_request": (replays[0].samples / body_len, "samples"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(record: Replay) -> dict:
    """The ledger's per-layer metrics for one traced replay."""
    ledger, stats = record.ledger, record.stats
    wall = record.end - record.start
    idle = sum(b - a for a, b in ledger.idle)
    own, total, count = ledger.self_s, ledger.total_s, ledger.counts
    lookups = stats["cache_hits"] + stats["cache_misses"]
    probes = count["flatness.hits"] + count["flatness.misses"]
    items = count["reservoir.items"]
    maintainer = ("maintainer.ingest", "maintainer.probe", "maintainer.learn")
    return {
        "bench.gen_lag_p99_ms": (_percentile(record.outcome.lags, 99) * 1e3, "ms"),
        "bench.loop_idle_share": (idle / wall, "ratio"),
        "bench.self_s": (own["bench"], "s"),
        "service.batches": (stats["batches"], "count"),
        "service.batch_mean": (
            (stats["served"] - stats["cache_hits"]) / stats["batches"] if stats["batches"] else 0.0,
            "count",
        ),
        "service.cache_hit_ratio": (stats["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "service.rejected": (stats["rejected"], "count"),
        "service.queue_wait_p50_ms": (_percentile(ledger.queue_waits, 50) * 1e3, "ms"),
        "service.queue_wait_p99_ms": (_percentile(ledger.queue_waits, 99) * 1e3, "ms"),
        "service.self_s": (own["service"], "s"),
        "maintainer.ingest_s": (total["maintainer.ingest"], "s"),
        "maintainer.probe_s": (total["maintainer.probe"], "s"),
        "maintainer.learn_s": (total["maintainer.learn"], "s"),
        "maintainer.self_s": (sum(own[name] for name in maintainer), "s"),
        "maintainer.rebuilds": (record.rebuilds, "count"),
        "reservoir.ingest_s": (own["reservoir"], "s"),
        "reservoir.items": (items, "count"),
        "reservoir.ns_per_item": (own["reservoir"] / items * 1e9 if items else 0.0, "ns"),
        "draws.s": (own["draws"], "s"),
        "draws.samples": (count["draws.samples"], "samples"),
        "compile.tester_s": (own["compile.tester"], "s"),
        "compile.tester_members": (count["compile.tester_members"], "count"),
        "compile.learn_s": (own["compile.learn"], "s"),
        "flatness.resolve_s": (own["flatness"], "s"),
        "flatness.resolve_calls": (count["flatness.resolve_calls"], "count"),
        "flatness.memo_hit_ratio": (count["flatness.hits"] / probes if probes else 0.0, "ratio"),
        "search.s": (own["search"], "s"),
        "greedy.learn_s": (own["greedy"], "s"),
        "greedy.runs": (count["greedy.runs"], "count"),
        "greedy.rounds": (count["greedy.rounds"], "count"),
        "persist.write_s": (own["persist.write"], "s"),
        "persist.write_mb": (count["persist.write_bytes"] / MIB, "MB"),
        "persist.checkpoints": (count["persist.checkpoints"], "count"),
        "persist.restore_s": (own["persist.restore"], "s"),
        "persist.restore_mb": (count["persist.restore_bytes"] / MIB, "MB"),
        "trace.coverage": ((sum(own.values()) + idle) / wall, "ratio"),
    }


async def measure(args, workload, plan, work_dir, selector):
    ref = await reference(workload, plan, args.seed, work_dir)
    # The trace and the reference log are the benchmark's own data: keep
    # the collector from traversing them during measured replays.
    gc.collect()
    gc.freeze()
    # The first coalesced replay in a process runs slower than the rest
    # (its p99 was ~1.8x theirs on storm): it grows the heap that later
    # replays reuse.  A long-running service pays that once, so one
    # checked but unreported replay goes first.
    warmup = await replay(workload, plan, args.seed, ref, work_dir, selector, False, warmup=True)
    replays = []
    deadline = perf_counter() + args.seconds
    while True:
        started = perf_counter()
        for traced in (False, True) if args.trace else (False,):
            replays.append(
                await replay(workload, plan, args.seed, ref, work_dir, selector, traced)
            )
        cycle = perf_counter() - started
        if perf_counter() + cycle > deadline:
            return warmup, replays


def run(args) -> int:
    """Measure ``args.workload`` and print the report; the exit status."""
    workload = workloads.WORKLOADS[args.workload]
    plan = workloads.plan(workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK)
    selector = IdleSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        warmup, replays = loop.run_until_complete(
            measure(args, workload, plan, work_dir, selector)
        )
    finally:
        loop.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    body_len = len(plan.body)
    attempted = len(replays) * body_len
    failed = sum(r.outcome.failed for r in replays)
    problems = [f"warm-up replay: {p}" for p in warmup.problems] + [
        f"replay {i}: {p}" for i, r in enumerate(replays) for p in r.problems
    ]
    untraced = [r for r in replays if not r.traced]
    traced = [r for r in replays if r.traced]
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "workload": workload.name,
        "load": workload.load,
        "body_requests": body_len,
        "replays": len(replays),
    }
    print(f"# env {json.dumps(env)}")
    for i, r in enumerate(replays):
        print(
            f"# replay {i}{' (traced)' if r.traced else ''}: sent {body_len}, "
            f"succeeded {body_len - r.outcome.failed}, failed {r.outcome.failed} "
            f"(refused {r.outcome.refused}); setup {r.setups[-1]:.3f} s, "
            f"wall {r.outcome.wall_s:.3f} s"
        )
    for problem in problems:
        print(f"# FAILED {problem}")
    if problems:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    print(f"# error_rate {failed / attempted!r} ratio")
    metrics = end_to_end(untraced, body_len)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"# untraced {name} {value!r} {unit}")
        layers = [per_layer(r) for r in traced]
        metrics = {
            name: (statistics.fmean(layer[name][0] for layer in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        overhead = sum(r.traced_cpu_s for r in traced) / sum(r.traced_cpu_s for r in untraced) - 1
        metrics["trace.overhead"] = (overhead, "ratio")
        last = traced[-1]
        coverage = metrics["trace.coverage"][0]
        if abs(coverage - 1) > 0.1:
            gaps = last.ledger.coverage_gaps(last.start, last.end)
            print(f"# trace.coverage {coverage:.3f} is outside 10% of 1; largest uncovered "
                  "intervals of the last traced replay:")
            for length, offset, before, after in gaps:
                print(f"#   {length * 1e3:.3f} ms at +{offset:.3f} s, between {before} and {after}")
        spans = WORK / f"spans-{workload.name}-{args.seed}.tsv"
        last.ledger.write(str(spans))
        print(f"# spans of the last traced replay: {spans.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
