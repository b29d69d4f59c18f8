"""Serving a fleet of 64 streams from one batched facade.

Runs in under a minute::

    python examples/fleet_serving.py

A monitoring plane watches 64 independent event streams over one shared
domain of 2048 buckets (think: per-tenant latency histograms).  Each
stream is an observed data column; the plane asks the same questions of
every stream — "is this tenant still well-modelled by a small
histogram?", "how many buckets does it really need?" — and relearns a
compact summary per tenant.  :class:`repro.api.HistogramFleet` answers
all of it fleet-batched: pools draw in one planned pass, each tenant's
tester layout is stacked into one fleet slab, and the testers' binary
searches run in lockstep across tenants.  Results are byte-identical to
looping a :class:`repro.api.HistogramSession` per stream
(``tests/test_fleet.py`` holds that contract), and the tester sweep is
faster — ``BENCH_fleet.json`` tracks the measured speedup.

Set ``REPRO_EXAMPLES_SMOKE=1`` to run with tiny parameters (the CI
examples-smoke job does; numbers are then illustrative only).
"""

import os

import numpy as np

from repro.api import ArraySource, HistogramFleet
from repro.core.params import GreedyParams, TesterParams
from repro.distributions import families
from repro.utils.timing import Timer

N = 2_048
FLEET_SIZE = 64
SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0")
STREAM_LENGTH = 5_000 if SMOKE else 50_000


def synthetic_streams() -> list[ArraySource]:
    """64 observed columns: most tenants are smooth k-histograms, a few
    are pathological (spiky / heavy-tailed) and should fail the tester."""
    rng = np.random.default_rng(0)
    sources = []
    for member in range(FLEET_SIZE):
        if member % 16 == 5:
            base = families.spikes(N, 12)           # pathological tenant
        elif member % 16 == 11:
            base = families.zipf(N, 1.3)            # heavy-tailed tenant
        else:
            base = families.random_tiling_histogram(
                N, int(rng.integers(2, 7)), rng=member + 1, min_piece=32
            )
        sources.append(ArraySource(base.sample(STREAM_LENGTH, rng), N))
    return sources


def main() -> None:
    fleet = HistogramFleet(
        synthetic_streams(),
        N,
        rng=42,  # spawns one independent generator per member
        test_budget=TesterParams(num_sets=15, set_size=1_500 if SMOKE else 8_000),
        learn_budget=GreedyParams(
            weight_sample_size=3_000 if SMOKE else 20_000,
            collision_sets=5,
            collision_set_size=1_500 if SMOKE else 10_000,
            rounds=1,  # re-derived per (k, epsilon)
        ),
        max_candidates=20_000,
    )

    with Timer() as t_test:
        verdicts = fleet.test_l2(8, 0.25)
    flagged = [f for f, verdict in enumerate(verdicts) if not verdict.accepted]
    print(
        f"tested {fleet.size} streams for 8-histogram structure in "
        f"{t_test.elapsed:.2f}s -> {len(flagged)} flagged: {flagged}"
    )

    with Timer() as t_min_k:
        selections = fleet.min_k(0.3, max_k=16, norm="l2")
    buckets = [s.k if s.k is not None else ">16" for s in selections]
    print(
        f"min-k sweep (shares the testers' verdict memos) in "
        f"{t_min_k.elapsed:.2f}s -> bucket counts: "
        f"{sorted(set(map(str, buckets)))}"
    )

    with Timer() as t_learn:
        summaries = fleet.learn(8, 0.25)
    total_pieces = sum(len(result.histogram.values) for result in summaries)
    print(
        f"learned 8-piece summaries for every stream in {t_learn.elapsed:.2f}s "
        f"({total_pieces} pieces total, "
        f"{sum(fleet.samples_drawn):,} samples drawn fleet-wide)"
    )

    print(
        "\nReading: the flagged tenants are exactly the synthetic "
        "pathological ones (indices 5, 21, 37, 53 are spiky; the zipf "
        "tenants need many more buckets than the smooth majority)."
    )


if __name__ == "__main__":
    main()
