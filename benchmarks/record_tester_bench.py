"""Summarise tester benchmark runs into ``BENCH_tester.json``.

``bench_t10_tester_compiled.py`` benchmarks every workload twice —
``<kernel>`` on the compiled tester and ``<kernel>_full`` on the
per-query reference ``_reference_test`` — inside one run, so a single
``pytest-benchmark`` json carries its own before/after pairing.  Two
modes:

* seed / refresh the checked-in record::

      python benchmarks/record_tester_bench.py \
          --run run.json --out BENCH_tester.json

* diff a fresh CI run against the checked-in record (the run's compiled
  means are compared to the record's ``compiled_s`` — the perf
  trajectory — while the speedup is still computed from the run's own
  pairing)::

      python benchmarks/record_tester_bench.py \
          --run run.json --baseline BENCH_tester.json --out BENCH_tester.ci.json

The summary keeps one entry per kernel pair (full/compiled mean seconds
and the speedup ratio), small enough to live in the repository and be
diffed by future PRs.  The reduction itself is the shared paired
recorder (``benchmarks/_recorder.py``), parameterised by this suite's
kernel prefix and key names.
"""

from __future__ import annotations

import sys

from _recorder import PairedBenchSpec, paired_main

SPEC = PairedBenchSpec(
    kernel_prefix="test_tester",
    pair_suffix="_full",
    primary="compiled",
    pair="full",
    stat="mean_s",
    extra="stddev",
    suite="bench_t10_tester_compiled kernel pairs (each workload runs "
    "on the compiled tester, compiled from the raw sample sets every round, "
    "and on the per-query reference _reference_test over a prebuilt "
    "MultiSketch, in the same session; speedup = full_s / compiled_s, "
    "cold compile included)",
)


def main(argv: list[str] | None = None) -> int:
    return paired_main(SPEC, __doc__, "BENCH_tester.json", argv)


if __name__ == "__main__":
    sys.exit(main())
