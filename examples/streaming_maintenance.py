"""Maintaining a histogram over a drifting stream.

Runs in under a minute::

    python examples/streaming_maintenance.py

The paper's greedy learner descends from a streaming algorithm
([TGIK02]); this example closes the loop.  A workload monitor watches a
stream of product ids whose popularity shifts mid-stream (a viral
product); a reservoir sample plus a greedy rebuild per window keeps a
16-piece summary current, and we track its range-query accuracy through
the drift.

Set ``REPRO_EXAMPLES_SMOKE=1`` to run with tiny parameters (the CI
examples-smoke job does; numbers are then illustrative only).
"""

import os

import numpy as np

from repro import Interval, l1_distance
from repro.distributions import families
from repro.streaming import FleetMaintainer


SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0")
BATCH = 2_000 if SMOKE else 5_000


def main() -> None:
    n = 1024
    before = families.zipf(n, 1.1)  # head-heavy catalogue
    # Mid-stream, a band of previously cold products goes viral.
    viral = families.two_level(n, heavy_start=700, heavy_length=50, heavy_mass=0.6)

    # A fresh one-stream maintainer per window gives sliding-window
    # semantics: each summary reflects only the last BATCH items, so
    # drift is tracked quickly.
    seeds = np.random.default_rng(0)  # spawns each window's generator
    rng = np.random.default_rng(1)
    viral_band = Interval(700, 750)
    items_seen = rebuilds = 0

    print(f"{'items seen':>10s} {'regime':>8s} {'rebuilds':>8s} "
          f"{'l1 to regime':>13s} {'viral-band mass':>16s}")
    for phase, (regime, label, batches) in enumerate(
        ((before, "before", 3 if SMOKE else 6), (viral, "after", 4 if SMOKE else 10))
    ):
        for _ in range(batches):
            window = FleetMaintainer(1, n, k=16, reservoir_capacity=BATCH, rng=seeds)
            window.update_many(0, regime.sample(BATCH, rng))
            summary = window.histogram(0)
            items_seen += BATCH
            rebuilds += window.rebuilds
            print(
                f"{items_seen:10d} {label:>8s} {rebuilds:8d} "
                f"{l1_distance(regime, summary):13.3f} "
                f"{summary.range_mass(viral_band):16.3f}"
            )

    print(
        "\nReading: the summary tracks each regime within a few rebuilds; "
        "the viral band's mass estimate jumps from ~0 to ~0.6 after the shift."
    )


if __name__ == "__main__":
    main()
