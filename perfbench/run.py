"""The serving benchmark: replay a seeded workload through ``HistogramService``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

One run builds the workload's trace from ``--seed``, then, untimed, the
request-at-a-time reference (``max_batch=1``, cache off, cold) and its
``canonical()`` response log.  ``relearn`` also snapshots the reference
service after its priming prefix; every measured replay warm-starts from
a fresh copy of that snapshot.  One warm-up replay, checked but not
reported, goes first.  The run then replays the trace through fresh
services until ``--seconds`` have passed.  Every replay must match the
reference byte for byte and draw exactly as many samples, or the run
fails without reporting numbers.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced replays and reports the per-layer metrics of the
traced ones (see ``ledger.py``), with ``trace.overhead`` measured against
the untraced ones.  The last line of standard output is one JSON object;
the lines before it are a readable summary, the environment stamp and
one line per replay.

Definitions.  Every timing is the median over the run's replays of its
per-replay value, so a slow stretch of a shared machine moves it less.

* ``setup_s`` — construction until the service can answer: plus the
  warmup ingests on cold workloads; the warm-start restore on
  ``relearn``.
* ``p50_ms`` / ``p99_ms`` — over the replay's requests (each replay has
  at least 1,000); open loop timed from the scheduled send, closed loop
  from ``submit``.
* ``throughput_rps`` — completed requests per second of replay wall.
* ``cpu_ms_per_request`` — process CPU time of the replay per request.
* ``samples_per_request`` — samples the fleet drew per request.
* ``peak_rss_mb`` — the process's peak resident set, in MiB.
* ``error_rate`` — (error responses + refused submits) / attempted.  It
  is printed in the summary and carried by the JSON ``attempted`` and
  ``failed`` fields, not as a metric: every workload is built to have
  none, and a metric that is always 0 has no relative bound.
* ``trace.overhead`` — process CPU time of the traced replays over that
  of the untraced ones, minus one.  CPU rather than wall time, because
  an open loop's wall time is set by its schedule.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("storm", "requery", "relearn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
