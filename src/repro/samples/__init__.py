"""Sample-set machinery behind every estimator in the paper.

* :class:`SampleSet` — a sorted sample array answering interval hit counts
  ``|S_I|`` in ``O(log m)`` (the ``y_I`` estimates of Algorithm 1);
* :class:`CollisionSketch` — per-value occurrence counts with pair-count
  prefix sums, answering interval collision counts ``coll(S_I)`` in
  ``O(log m)`` (the ``z_I`` estimates);
* :class:`ShardedSketch` — the shard-mergeable form of both: per-shard
  sorted buffers whose merged hit/pair prefix rows are bit-equal to the
  monolithic sort (and dense counting) paths;
* :mod:`repro.samples.estimators` — the estimator formulas themselves:
  the absolute second-moment estimator of Lemma 1, the conditional
  ``||p_I||_2^2`` estimator of Eq. 2, and their median-of-r combinations.
"""

from repro.samples.collision import (
    CollisionSketch,
    batched_pair_prefixes,
    collision_count,
)
from repro.samples.estimators import (
    MultiSketch,
    absolute_second_moment_estimate,
    conditional_norm_estimate,
    observed_collision_probability,
    weight_estimate,
)
from repro.samples.sample_set import SampleSet
from repro.samples.sharded import ShardedSketch, sharded_interval_prefixes

__all__ = [
    "CollisionSketch",
    "MultiSketch",
    "SampleSet",
    "ShardedSketch",
    "absolute_second_moment_estimate",
    "batched_pair_prefixes",
    "collision_count",
    "conditional_norm_estimate",
    "observed_collision_probability",
    "sharded_interval_prefixes",
    "weight_estimate",
]
