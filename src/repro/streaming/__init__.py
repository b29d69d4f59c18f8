"""Streaming histogram maintenance ([TGIK02] lineage).

The paper's greedy algorithm "is inspired by [the] streaming algorithm
in [TGIK02]" (dynamic multidimensional histograms).  This package closes
the loop: :class:`FleetMaintainer` keeps a near-v-optimal k-histogram
over each of one or many streams sharing a domain by combining

* an exact uniform reservoir (Vitter's Algorithm R) per stream, and
* periodic rebuilds with the paper's fast greedy learner driven by the
  reservoirs, batched through :class:`repro.api.HistogramFleet` with
  lazy per-member invalidation.

One stream is ``FleetMaintainer(1, n, k, ...)``.  Substrate/extension
status is documented in README.md ("Design notes").
"""

from repro.streaming.fleet import FleetMaintainer
from repro.streaming.reservoir import ReservoirSampler

__all__ = ["FleetMaintainer", "ReservoirSampler"]
