"""``repro-serve``: replay a skewed workload through the serving layer.

A one-command demonstration of the serving stack: build a
:class:`~repro.serving.HistogramService` over ``--streams`` named
streams, generate the seeded Pareto/burst/chain workload, replay it
closed-loop, and print the latency/throughput report — once coalesced
(``--max-batch``) and once request-at-a-time for comparison unless
``--no-baseline``.
"""

from __future__ import annotations

import argparse
import asyncio

import numpy as np

from repro.serving.service import HistogramService, ServiceConfig
from repro.serving.workload import (
    ReplayReport,
    WorkloadConfig,
    WorkloadGenerator,
    replay,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Replay a skewed workload through the coalescing serving layer.",
    )
    parser.add_argument("--streams", type=int, default=64, help="fleet width")
    parser.add_argument("--requests", type=int, default=512, help="trace length")
    parser.add_argument("--n", type=int, default=4096, help="domain size")
    parser.add_argument("--k", type=int, default=8, help="histogram pieces")
    parser.add_argument("--epsilon", type=float, default=0.3, help="accuracy")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--max-batch", type=int, default=32, help="coalescer window bound"
    )
    parser.add_argument(
        "--linger-us", type=float, default=500.0, help="coalescer linger"
    )
    parser.add_argument(
        "--clients", type=int, default=16, help="concurrent replay clients"
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="latency budget stamped on every post-warmup request",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the request-at-a-time comparison run",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        metavar="N",
        help="response-cache bound in entries (default 256); repeat "
        "non-mutating requests on an unchanged stream serve from it "
        "at admission, byte-identical to cold execution",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the response cache (same as --cache-capacity 0)",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="warm-start directory: restore DIR/service.snap at startup "
        "(cold build if absent/corrupt) and checkpoint there at drain-close "
        "(implies --no-baseline)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="additionally checkpoint after every N admission windows "
        "(requires --snapshot-dir)",
    )
    parser.add_argument(
        "--checkpoint-mode",
        choices=("full", "delta"),
        default="full",
        help="checkpoint strategy: 'full' re-writes every slab, 'delta' "
        "writes differential checkpoints re-writing only changed "
        "members' slabs (compacted every few links; requires "
        "--snapshot-dir)",
    )
    return parser


def _report(label: str, report: ReplayReport, health: dict) -> None:
    stats = health["stats"]
    print(f"[{label}]")
    print(
        f"  {report.requests} requests, {report.ok} ok, "
        f"errors={dict(report.errors)}, rejected={report.rejected}"
    )
    print(
        f"  wall {report.wall_s * 1e3:8.1f} ms   "
        f"throughput {report.throughput_rps:9.1f} req/s"
    )
    print(
        f"  latency p50 {report.p50_us:9.1f} us   p99 {report.p99_us:9.1f} us"
    )
    print(
        f"  batches {stats['batches']}, largest {stats['largest_batch']}, "
        f"coalesced requests {stats['coalesced']}, "
        f"deadline hits {stats['deadline_hits']}"
    )
    lookups = stats["cache_hits"] + stats["cache_misses"]
    hit_rate = stats["cache_hits"] / lookups if lookups else 0.0
    print(
        f"  cache: {stats['cache_hits']} hits / {lookups} lookups "
        f"(hit rate {hit_rate:.1%})"
    )


async def _run(args: argparse.Namespace) -> None:
    config = WorkloadConfig(
        streams=args.streams,
        requests=args.requests,
        seed=args.seed,
        n=args.n,
        k=args.k,
        epsilon=args.epsilon,
        deadline_ms=args.deadline_ms,
    )
    generator = WorkloadGenerator(config)
    trace = generator.trace()
    print(
        f"workload: {len(trace)} events over {args.streams} streams "
        f"(seed {args.seed}, Pareto alpha {config.alpha})"
    )
    reference = np.full(args.n, 1.0 / args.n)
    modes = [("coalesced", args.max_batch, args.linger_us)]
    if not args.no_baseline and args.snapshot_dir is None:
        # A second run against the same snapshot dir would warm-start
        # off the first run's drain checkpoint and skew the comparison.
        modes.append(("one-at-a-time", 1, 0.0))
    for label, max_batch, linger_us in modes:
        cache_capacity = 0 if args.no_cache else args.cache_capacity
        service = HistogramService(
            generator.stream_names,
            args.n,
            args.k,
            args.epsilon,
            config=ServiceConfig(
                max_batch=max_batch,
                max_linger_us=linger_us,
                cache_capacity=cache_capacity,
            ),
            references={config.reference: reference},
            rng=args.seed,
            snapshot_dir=args.snapshot_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_mode=args.checkpoint_mode,
        )
        if args.snapshot_dir is not None:
            if service.warm_started:
                print(f"warm start: restored {service.restored_from}")
            else:
                print(f"cold start: {service.restore_error}")
        async with service:
            report = await replay(service, trace, clients=args.clients)
            _report(label, report, service.health())
        if args.snapshot_dir is not None:
            stats = service.stats
            print(
                f"checkpoints: {stats['checkpoints']} written "
                f"({stats['checkpoint_failures']} failed, last "
                f"{stats['checkpoint_bytes']} bytes, mode "
                f"{args.checkpoint_mode}) -> {service.snapshot_path}"
            )


def _check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject flag mistakes up front, before any workload is generated."""
    for flag in ("streams", "max_batch", "clients"):
        value = getattr(args, flag)
        if value < 1:
            parser.error(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    if args.cache_capacity < 0:
        parser.error(f"--cache-capacity must be >= 0, got {args.cache_capacity}")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    if args.snapshot_dir is None:
        if args.checkpoint_every is not None:
            parser.error("--checkpoint-every requires --snapshot-dir")
        if args.checkpoint_mode == "delta":
            parser.error("--checkpoint-mode delta requires --snapshot-dir")


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    _check(parser, args)
    asyncio.run(_run(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
