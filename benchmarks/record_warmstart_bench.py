"""Summarise warm-start benchmark runs into ``BENCH_warmstart.json``.

``bench_t14_warmstart.py`` benchmarks the restart scenario twice in one
run — ``<kernel>`` restoring the fleet's mmap snapshot and
``<kernel>_cold`` rebuilding from raw stream batches — so the pair's
speedup is time-to-first-response, warm over cold.  Two modes:

* seed / refresh the checked-in record::

      python benchmarks/record_warmstart_bench.py \
          --run run.json --out BENCH_warmstart.json

* diff a fresh CI run against the checked-in record::

      python benchmarks/record_warmstart_bench.py \
          --run run.json --baseline BENCH_warmstart.json \
          --out BENCH_warmstart.ci.json

Speedups use each kernel's *minimum* round time (the pairs run
interleaved on shared CI machines; the mean is also recorded).  The
64-stream pair records ~3.6x for warm start over cold compile; the CI
``persist-smoke`` job fails the smoke-sized pair below 1.5x.
"""

from __future__ import annotations

import sys

from _recorder import PairedBenchSpec, paired_main

SPEC = PairedBenchSpec(
    kernel_prefix="test_warmstart",
    pair_suffix="_cold",
    primary="warm",
    pair="cold",
    stat="min_s",
    extra="mean",
    suite=(
        "bench_t14_warmstart kernel pairs (each restart scenario runs "
        "warm — restore the fleet's mmap snapshot and answer one tester "
        "sweep — and cold — re-ingest every reservoir and recompile — in "
        "the same run; speedup = cold_s / warm_s over per-kernel minimum "
        "round times)"
    ),
)


if __name__ == "__main__":
    sys.exit(
        paired_main(
            SPEC,
            description=__doc__,
            default_out="BENCH_warmstart.json",
        )
    )
