"""Shared machinery for the ``record_*_bench.py`` summarisers.

Every bench recorder does the same four things — load a
``pytest-benchmark --benchmark-json`` run, reduce each kernel (or
kernel pair) to a few rounded numbers, optionally diff against the
checked-in record, and write/print a small JSON summary that lives in
the repository.  The scripts differ only in their *spec*: which kernels
count, how pairs are named, which statistic is the location estimate,
and what the summary keys are called.  :class:`PairedBenchSpec` +
:func:`paired_main` capture the common paired form
(``<kernel>`` vs ``<kernel><suffix>`` inside one run);
``record_greedy_bench.py`` keeps its own before/after reducer but
shares the loading and output helpers.

The emitted JSON layouts are byte-compatible with the records the CI
bench-smoke job diffs against (``BENCH_tester.json``,
``BENCH_fleet.json``, ``BENCH_shard.json``, ``BENCH_greedy.json``).
Every summary also carries ``cpu_count``, the core count of the machine
that ran it; baseline diffs read only ``benchmarks``, so they ignore it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from dataclasses import dataclass


def load_stats(pytest_benchmark_json: str) -> dict[str, dict[str, float]]:
    """Per-kernel stats of one ``pytest-benchmark`` json run."""
    with open(pytest_benchmark_json) as handle:
        data = json.load(handle)
    return {
        bench["name"]: {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
        }
        for bench in data["benchmarks"]
    }


def write_summary(summary: dict, out_path: str) -> None:
    """Write one summary JSON, stamped with this machine's core count."""
    with open(out_path, "w") as handle:
        json.dump(
            {**summary, "cpu_count": os.cpu_count()},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


@dataclass(frozen=True)
class PairedBenchSpec:
    """One paired recorder's shape.

    Attributes
    ----------
    kernel_prefix:
        Only kernels starting with this count (their pairs ride along).
    pair_suffix:
        The baseline twin's name suffix (e.g. ``"_loop"``, ``"_full"``).
    primary / pair:
        Key stems: the summary holds ``<primary>_s``, ``<pair>_s``,
        ``speedup``, ``baseline_<primary>_s`` and ``vs_baseline``.
    stat:
        The location estimate (``"min_s"`` for interleaved pairs on
        noisy shared machines, ``"mean_s"`` otherwise).
    extra:
        ``"mean"`` records ``<primary>_mean_s``/``<pair>_mean_s``
        alongside a min-based estimate; ``"stddev"`` records
        ``<primary>_stddev_s``; ``None`` records nothing extra.
    suite:
        The human-readable suite description embedded in the JSON.
    """

    kernel_prefix: str
    pair_suffix: str
    primary: str
    pair: str
    stat: str
    extra: str | None
    suite: str


def paired_summary(
    spec: PairedBenchSpec,
    stats: dict[str, dict[str, float]],
    baseline: dict[str, dict] | None = None,
) -> dict:
    """Reduce one run's kernel pairs to the spec's summary layout."""
    benchmarks = {}
    for name, primary in stats.items():
        if name.endswith(spec.pair_suffix) or not name.startswith(
            spec.kernel_prefix
        ):
            continue
        entry = {f"{spec.primary}_s": round(primary[spec.stat], 5)}
        if spec.extra == "stddev":
            entry[f"{spec.primary}_stddev_s"] = round(primary["stddev_s"], 5)
        elif spec.extra == "mean":
            entry[f"{spec.primary}_mean_s"] = round(primary["mean_s"], 5)
        pair = stats.get(name + spec.pair_suffix)
        if pair is not None:
            entry[f"{spec.pair}_s"] = round(pair[spec.stat], 5)
            if spec.extra == "mean":
                entry[f"{spec.pair}_mean_s"] = round(pair["mean_s"], 5)
            if primary[spec.stat] > 0:
                entry["speedup"] = round(pair[spec.stat] / primary[spec.stat], 2)
        if baseline is not None and name in baseline:
            recorded = baseline[name].get(f"{spec.primary}_s")
            if recorded and primary[spec.stat] > 0:
                entry[f"baseline_{spec.primary}_s"] = recorded
                entry["vs_baseline"] = round(recorded / primary[spec.stat], 2)
        benchmarks[name] = entry
    return {
        "suite": spec.suite,
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }


def print_paired_summary(spec: PairedBenchSpec, summary: dict) -> None:
    """One stdout line per kernel, as the record scripts always printed."""
    for name, entry in sorted(summary["benchmarks"].items()):
        ratio = f' ({entry["speedup"]}x)' if "speedup" in entry else ""
        drift = (
            f' [vs baseline {entry["vs_baseline"]}x]'
            if "vs_baseline" in entry
            else ""
        )
        print(f'{name}: {entry[f"{spec.primary}_s"]}s{ratio}{drift}')


def paired_main(
    spec: PairedBenchSpec,
    description: str,
    default_out: str,
    argv: list[str] | None = None,
) -> int:
    """The shared ``--run [--baseline] --out`` CLI of paired recorders."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--run", required=True, help="pytest-benchmark json of a run"
    )
    parser.add_argument(
        "--baseline", help=f"checked-in {default_out} to diff against"
    )
    parser.add_argument("--out", default=default_out, help="output path")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)["benchmarks"]
    summary = paired_summary(spec, load_stats(args.run), baseline)
    write_summary(summary, args.out)
    print_paired_summary(spec, summary)
    return 0
