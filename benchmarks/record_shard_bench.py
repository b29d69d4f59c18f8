"""Summarise shard-engine benchmark runs into ``BENCH_shard.json``.

``bench_t12_shard.py`` benchmarks every workload twice in one run —
``<kernel>`` and its ``<kernel>_loop`` baseline twin — so a single
``pytest-benchmark`` json carries its own pairing.  Two modes:

* seed / refresh the checked-in record::

      python benchmarks/record_shard_bench.py \
          --run run.json --out BENCH_shard.json

* diff a fresh CI run against the checked-in record::

      python benchmarks/record_shard_bench.py \
          --run run.json --baseline BENCH_shard.json --out BENCH_shard.ci.json

Speedups use each kernel's *minimum* round time (the pairs run
interleaved on shared CI machines; the mean is also recorded).  The
acceptance bars for this suite: the 64-stream serving sweep at
``workers=4`` records >= 2x over the looped-session baseline, and the
out-of-core learn pair — the production engine against its full-span
reference over the same session draws — records >= 2x (CI
additionally holds it to a 1.5x floor at smoke size via
``benchmarks/perf_guard.py``).  The 64-member fleet ``learn_many``
pair isolates fleet batching (same engine, no executor on either
side) and is recorded without a bar.  The reduction itself is the
shared paired recorder (``benchmarks/_recorder.py``).
"""

from __future__ import annotations

import sys

from _recorder import PairedBenchSpec, paired_main

SPEC = PairedBenchSpec(
    kernel_prefix="test_shard",
    pair_suffix="_loop",
    primary="shard",
    pair="loop",
    stat="min_s",
    extra="mean",
    suite="bench_t12_shard kernel pairs, each twin measured in the same "
    "run: the serving sweep through a workers=4 fleet vs looped serial "
    "sessions, the out-of-core learn on the production engine vs its "
    "full-span reference, the fleet learn batched vs looped sessions; "
    "speedup = loop_s / shard_s over per-kernel minimum round times, cold "
    "compile included",
)


def main(argv: list[str] | None = None) -> int:
    return paired_main(SPEC, __doc__, "BENCH_shard.json", argv)


if __name__ == "__main__":
    sys.exit(main())
