"""Production facade: sessions that reuse samples and sketches.

This package is the recommended front door to the library:

* :class:`HistogramSession` — draw a sample budget once, compile sketches
  once, answer many learn/test/min-k operations over it;
* :class:`HistogramFleet` — the same facade over many distributions
  sharing a domain: pooled draws, stacked sort-free compilation, and
  lockstep tester searches, byte-identical to a loop of sessions;
* :class:`SampleSource` — the formal protocol every algorithm consumes a
  distribution through, with :func:`as_sample_source`,
  :class:`ArraySource`, and :class:`CountingSource` adapters;
* :class:`SketchBundle` — the shared pools and caches behind a session.

The classic module-level functions (:func:`repro.learn_histogram` and
friends) remain as deprecated one-shot compositions of the same
machinery.
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
