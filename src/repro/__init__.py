"""repro — sub-linear approximation and testing of k-histogram distributions.

A faithful, production-quality reproduction of

    Piotr Indyk, Reut Levi, Ronitt Rubinfeld.
    "Approximating and Testing k-Histogram Distributions in Sub-linear
    Time." PODS 2012.

Public surface (see README.md for a tour):

* sessions:  :class:`HistogramSession` — the recommended front door:
  draw a sample budget once, compile sketches once, answer batched
  learn/test/min-k operations with cross-call caching;
* fleets:    :class:`HistogramFleet` — batched learn/test over many
  distributions sharing a domain (vectorised compilation and lockstep
  tester searches, byte-identical to a loop of sessions);
* learning:  :meth:`HistogramSession.learn` (Algorithm 1 / Theorem 2);
* testing:   :meth:`HistogramSession.test_l2`,
  :meth:`HistogramSession.test_l1` (Theorems 3/4) and
  :meth:`HistogramSession.min_k`; :func:`test_uniformity` (the k=1
  special case);
* representations: :class:`Interval`, :class:`TilingHistogram`,
  :class:`PriorityHistogram`;
* distributions: :class:`DiscreteDistribution`,
  :class:`EmpiricalDistribution`, the family generators in
  :mod:`repro.distributions`;
* baselines: :func:`voptimal_histogram` (exact DP) and the sampling
  constructions in :mod:`repro.baselines`;
* ground truth: :func:`distance_to_k_histogram` (exact distance to the
  property);
* hard instances: :mod:`repro.core.lower_bound` (Theorem 5).
"""

from repro.api import (
    ArraySource,
    CountingSource,
    HistogramFleet,
    HistogramSession,
    SampleSource,
    SketchBundle,
    as_sample_source,
)
from repro.baselines import (
    compressed_from_samples,
    equidepth_from_samples,
    equiwidth_from_samples,
    voptimal_from_samples,
    voptimal_histogram,
)
from repro.core import (
    GreedyParams,
    LearnResult,
    SelectionResult,
    TesterParams,
    TestResult,
    UniformityResult,
    test_uniformity,
)
from repro.distributions import (
    DiscreteDistribution,
    EmpiricalDistribution,
    distance_to_k_histogram,
    is_k_histogram,
    l1_distance,
    l2_distance,
    nearest_k_histogram,
)
from repro.errors import (
    EmptyStreamError,
    InsufficientSamplesError,
    InvalidDistributionError,
    InvalidHistogramError,
    InvalidIntervalError,
    InvalidParameterError,
    ReproError,
)
from repro.histograms import Interval, PriorityHistogram, TilingHistogram, compact

__version__ = "1.0.0"

__all__ = [
    "ArraySource",
    "CountingSource",
    "DiscreteDistribution",
    "EmpiricalDistribution",
    "EmptyStreamError",
    "GreedyParams",
    "HistogramFleet",
    "HistogramSession",
    "InsufficientSamplesError",
    "Interval",
    "InvalidDistributionError",
    "InvalidHistogramError",
    "InvalidIntervalError",
    "InvalidParameterError",
    "LearnResult",
    "PriorityHistogram",
    "ReproError",
    "SampleSource",
    "SelectionResult",
    "SketchBundle",
    "TestResult",
    "TesterParams",
    "TilingHistogram",
    "UniformityResult",
    "__version__",
    "as_sample_source",
    "compact",
    "compressed_from_samples",
    "distance_to_k_histogram",
    "equidepth_from_samples",
    "equiwidth_from_samples",
    "is_k_histogram",
    "l1_distance",
    "l2_distance",
    "nearest_k_histogram",
    "test_uniformity",
    "voptimal_from_samples",
    "voptimal_histogram",
]
