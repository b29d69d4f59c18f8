"""Summarise serving benchmark runs into ``BENCH_serve.json``.

``bench_t13_serving.py`` benchmarks every workload twice in one run —
``<kernel>`` through the coalescing service (deep admission windows)
and ``<kernel>_serial`` request-at-a-time (``max_batch=1``, the same
code path) — and each kernel carries its replay report (p50/p99
latency, throughput) as ``extra_info``.  This recorder reduces the
pair to wall times *and* latency/throughput ratios.  Two modes:

* seed / refresh the checked-in record::

      python benchmarks/record_serving_bench.py \
          --run run.json --out BENCH_serve.json

* diff a fresh CI run against the checked-in record::

      python benchmarks/record_serving_bench.py \
          --run run.json --baseline BENCH_serve.json --out BENCH_serve.ci.json

Speedups use each kernel's *minimum* round time (the pairs run
interleaved on shared CI machines; the mean is also recorded).  The
acceptance bars for this suite: the 64-stream storm workload records
>= 1.5x on throughput (equivalently wall time) for coalescing over
request-at-a-time serving, and the re-query workload — whose
``_serial`` twin flips the response cache off rather than coalescing —
records >= 1.5x for cached over uncached serving.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from _recorder import write_summary

SUITE = (
    "bench_t13_serving kernel pairs (the storm workload replays through "
    "the coalescing HistogramService and request-at-a-time (max_batch=1) "
    "in the same run, while the requery pair holds coalescing fixed and "
    "flips only the response cache — its _serial twin is cache-off, not "
    "request-at-a-time; speedup = serial_s / coalesced_s over per-kernel "
    "minimum round times; p50/p99 latency and throughput come from each "
    "kernel's closed-loop replay report)"
)

PAIR_SUFFIX = "_serial"


def load_kernels(pytest_benchmark_json: str) -> dict[str, dict]:
    """Per-kernel stats + replay extra_info of one benchmark run."""
    with open(pytest_benchmark_json) as handle:
        data = json.load(handle)
    return {
        bench["name"]: {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "extra": bench.get("extra_info", {}),
        }
        for bench in data["benchmarks"]
    }


def summarise(
    kernels: dict[str, dict], baseline: dict[str, dict] | None = None
) -> dict:
    """Reduce kernel pairs to the ``BENCH_serve.json`` layout."""
    benchmarks = {}
    for name, primary in kernels.items():
        if name.endswith(PAIR_SUFFIX) or not name.startswith("test_serve"):
            continue
        entry = {
            "coalesced_s": round(primary["min_s"], 5),
            "coalesced_mean_s": round(primary["mean_s"], 5),
        }
        # Copy every extra_info key a kernel recorded (latency,
        # throughput, cache hits).
        for key in sorted(primary["extra"]):
            entry[f"coalesced_{key}"] = primary["extra"][key]
        pair = kernels.get(name + PAIR_SUFFIX)
        if pair is not None:
            entry["serial_s"] = round(pair["min_s"], 5)
            entry["serial_mean_s"] = round(pair["mean_s"], 5)
            for key in sorted(pair["extra"]):
                entry[f"serial_{key}"] = pair["extra"][key]
            if primary["min_s"] > 0:
                entry["speedup"] = round(pair["min_s"] / primary["min_s"], 2)
            if entry.get("coalesced_p99_us") and entry.get("serial_p99_us"):
                entry["p99_ratio"] = round(
                    entry["serial_p99_us"] / entry["coalesced_p99_us"], 2
                )
        if baseline is not None and name in baseline:
            recorded = baseline[name].get("coalesced_s")
            if recorded and primary["min_s"] > 0:
                entry["baseline_coalesced_s"] = recorded
                entry["vs_baseline"] = round(recorded / primary["min_s"], 2)
        benchmarks[name] = entry
    return {
        "suite": SUITE,
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--run", required=True, help="pytest-benchmark json of a run"
    )
    parser.add_argument(
        "--baseline", help="checked-in BENCH_serve.json to diff against"
    )
    parser.add_argument("--out", default="BENCH_serve.json", help="output path")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)["benchmarks"]
    summary = summarise(load_kernels(args.run), baseline)
    write_summary(summary, args.out)
    for name, entry in sorted(summary["benchmarks"].items()):
        ratio = f' ({entry["speedup"]}x)' if "speedup" in entry else ""
        drift = (
            f' [vs baseline {entry["vs_baseline"]}x]'
            if "vs_baseline" in entry
            else ""
        )
        print(f'{name}: {entry["coalesced_s"]}s{ratio}{drift}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
