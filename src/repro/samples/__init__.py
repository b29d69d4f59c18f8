"""Sample-set machinery behind every estimator in the paper.

* :class:`SampleSet` — a sorted sample array answering interval hit counts
  ``|S_I|`` in ``O(log m)`` (the ``y_I`` estimates of Algorithm 1);
* :class:`CollisionSketch` — per-value occurrence counts with pair-count
  prefix sums, answering interval collision counts ``coll(S_I)`` in
  ``O(log m)`` (the ``z_I`` estimates);
* :func:`interval_prefixes` — both counts for ``r`` sets at once, on a
  whole grid of endpoints: the one function every compile goes through
  (it counts on dense domains and sorts once on sparse ones);
* :mod:`repro.samples.estimators` — the estimator formulas themselves:
  the absolute second-moment estimator of Lemma 1, the conditional
  ``||p_I||_2^2`` estimator of Eq. 2, and their median-of-r combinations.
"""

from repro.samples.collision import (
    CollisionSketch,
    collision_count,
    interval_prefixes,
)
from repro.samples.estimators import (
    MultiSketch,
    absolute_second_moment_estimate,
    conditional_norm_estimate,
    observed_collision_probability,
    weight_estimate,
)
from repro.samples.sample_set import SampleSet

__all__ = [
    "CollisionSketch",
    "MultiSketch",
    "SampleSet",
    "absolute_second_moment_estimate",
    "collision_count",
    "conditional_norm_estimate",
    "interval_prefixes",
    "observed_collision_probability",
    "weight_estimate",
]
