"""Fail CI when a recorded kernel pair's speedup falls below a floor.

The ``record_*_bench.py`` summarisers reduce each ``<kernel>`` /
``<kernel>_loop`` pair of one run to a within-run ``speedup`` (both
twins measured interleaved on the same machine, so the ratio is
meaningful even on a noisy shared runner where absolute times are
not).  This guard reads one such summary and exits non-zero if any
named kernel is missing or its speedup is under the floor::

    python benchmarks/perf_guard.py --summary BENCH_shard.ci.json \
        --min-speedup 1.5 test_shard_learn_outofcore

The bench-smoke job runs it over the smoke-sized shard run: the
out-of-core pair's ratio — the production engine over its full-span
reference on the same draws — is a property of the engine, not the
workload size, so a floor of 1.5x (full-size record: >= 2x) holds at
CI scale and catches a regression that brings back a full-grid cost
per round.

``--key`` names the ratio to guard when a summary keeps more than one:
``BENCH_greedy.json`` records its within-run dense-vs-pair-list store
pair as ``store_speedup``::

    python benchmarks/perf_guard.py --summary BENCH_greedy.ci.json \
        --key store_speedup --min-speedup 1.3 test_fast_greedy_kernel_large
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--summary", required=True, help="a record_*_bench.py summary json"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail below this within-run pair speedup (default 1.5)",
    )
    parser.add_argument(
        "--key",
        default="speedup",
        help="the summary field holding the ratio (default speedup)",
    )
    parser.add_argument(
        "kernels", nargs="+", help="kernel names that must hold the floor"
    )
    args = parser.parse_args(argv)

    with open(args.summary) as handle:
        benchmarks = json.load(handle)["benchmarks"]

    failures = []
    for kernel in args.kernels:
        entry = benchmarks.get(kernel)
        if entry is None or args.key not in entry:
            failures.append(f"{kernel}: {args.key} missing from {args.summary}")
            continue
        ratio = entry[args.key]
        verdict = "ok" if ratio >= args.min_speedup else "FAIL"
        print(f"{kernel}: {ratio}x (floor {args.min_speedup}x) {verdict}")
        if ratio < args.min_speedup:
            failures.append(f"{kernel}: {ratio}x < {args.min_speedup}x")
    for failure in failures:
        print(f"perf-guard: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
