"""Production facade: sessions that reuse samples and sketches.

This package is the recommended front door to the library:

* :class:`HistogramSession` — draw a sample budget once, compile sketches
  once, answer many learn/test/min-k operations over it;
* :class:`HistogramFleet` — the same facade over many distributions
  sharing a domain: pooled draws, stacked compilation, and
  lockstep tester searches, byte-identical to a loop of sessions (a
  session is a one-member fleet);
* :class:`SampleSource` — the formal protocol every algorithm consumes a
  distribution through, with :func:`as_sample_source`,
  :class:`ArraySource`, and :class:`CountingSource` adapters;
* :class:`SketchBundle` — the shared pools and caches behind each fleet
  member.

A fresh session's first operation draws exactly what the paper's
draw-then-run composition of the :mod:`repro.core` halves would at the
same seed; there is no separate one-shot entry point.
"""

from repro.api.fleet import HistogramFleet
from repro.api.session import HistogramSession
from repro.api.sketches import SketchBundle
from repro.api.source import (
    ArraySource,
    CountingSource,
    SampleSource,
    as_sample_source,
)

__all__ = [
    "ArraySource",
    "CountingSource",
    "HistogramFleet",
    "HistogramSession",
    "SampleSource",
    "SketchBundle",
    "as_sample_source",
]
