"""Summarise greedy benchmark runs into ``BENCH_greedy.json``.

Two modes, both consuming ``pytest-benchmark --benchmark-json`` output:

* seed / refresh the checked-in before-vs-after record::

      python benchmarks/record_greedy_bench.py \
          --before before.json --after after.json --out BENCH_greedy.json

* diff a fresh CI run against the checked-in record (the run's means are
  compared to the record's ``after_s`` — the perf trajectory)::

      python benchmarks/record_greedy_bench.py \
          --run run.json --baseline BENCH_greedy.json --out BENCH_greedy.ci.json

The summary keeps one entry per benchmark (mean/stddev seconds and the
speedup ratio), small enough to live in the repository and be diffed by
future PRs.  Unlike the paired suites, the before/after sides here come
from *separate* runs (two engines cannot share one process), so this
script keeps its own reducer on top of the shared loading and output
helpers in ``benchmarks/_recorder.py``.

One pair does share a run: a kernel with a ``<kernel>_pairs`` twin (the
same learn on the pair-list ``rel`` store) also records ``pairs_s`` and
the within-run ``store_speedup`` over per-kernel minimum round times,
which CI guards with ``perf_guard.py --key store_speedup``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from _recorder import load_stats, write_summary

PAIR_SUFFIX = "_pairs"


def _summary(
    before: dict[str, dict[str, float]], after: dict[str, dict[str, float]]
) -> dict:
    benchmarks = {}
    for name, stats in after.items():
        entry = {
            "after_s": round(stats["mean_s"], 5),
            "after_stddev_s": round(stats["stddev_s"], 5),
        }
        if name in before:
            entry["before_s"] = round(before[name]["mean_s"], 5)
            if stats["mean_s"] > 0:
                entry["speedup"] = round(before[name]["mean_s"] / stats["mean_s"], 2)
        twin = after.get(name + PAIR_SUFFIX)
        if twin is not None and stats["min_s"] > 0:
            entry["pairs_s"] = round(twin["min_s"], 5)
            entry["store_speedup"] = round(twin["min_s"] / stats["min_s"], 2)
        benchmarks[name] = entry
    return {
        "suite": "bench_t2_greedy_fast kernels (bench_t9_session_reuse runs "
        "alongside as smoke asserts; its tests carry their own >= 2x bars "
        "and no benchmark fixture, so they produce no timing records)",
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--before", help="pytest-benchmark json of the old engine")
    parser.add_argument("--after", help="pytest-benchmark json of the new engine")
    parser.add_argument("--run", help="pytest-benchmark json of a fresh run")
    parser.add_argument("--baseline", help="checked-in BENCH_greedy.json to diff against")
    parser.add_argument("--out", default="BENCH_greedy.json", help="output path")
    args = parser.parse_args(argv)

    if args.before and args.after:
        summary = _summary(load_stats(args.before), load_stats(args.after))
    elif args.run and args.baseline:
        with open(args.baseline) as handle:
            recorded = json.load(handle)["benchmarks"]
        baseline = {
            name: {"mean_s": entry["after_s"]}
            for name, entry in recorded.items()
            if "after_s" in entry
        }
        summary = _summary(baseline, load_stats(args.run))
    else:
        parser.error("need either --before/--after or --run/--baseline")

    write_summary(summary, args.out)
    for name, entry in sorted(summary["benchmarks"].items()):
        ratio = f' ({entry["speedup"]}x)' if "speedup" in entry else ""
        store = (
            f' [store {entry["store_speedup"]}x]' if "store_speedup" in entry else ""
        )
        print(f'{name}: {entry["after_s"]}s{ratio}{store}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
