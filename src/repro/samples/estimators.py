"""Estimator formulas from Section 2 of the paper.

Three estimators drive everything:

* ``y_I = |S_I| / |S|`` — the weight estimate (Algorithm 1 step 2, tight
  to ``xi`` by Chernoff for ``|S| = ln(12 n^2) / (2 xi^2)``);
* ``coll(S_I) / C(|S|, 2)`` — the *absolute* second-moment estimator of
  Lemma 1, concentrating around ``sum_{i in I} p_i^2`` within
  ``eps * p(I)`` for ``|S| >= 24 / eps^2``;
* ``coll(S_I) / C(|S_I|, 2)`` — the *conditional* estimator of [GR00]
  (Eqs. 1–2), concentrating around ``||p_I||_2^2``.

Each has a median-of-r combinator (Chernoff amplification, as in
Algorithm 1 step 4 and Algorithm 2 step 1).  :class:`MultiSketch` bundles
the ``r`` independent sample sets the paper's algorithms draw.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import InsufficientSamplesError
from repro.samples.collision import CollisionSketch
from repro.samples.sample_set import SampleSet
from repro.utils.prefix import pairs_count


def weight_estimate(
    sample_set: SampleSet, starts: int | np.ndarray, stops: int | np.ndarray
) -> float | np.ndarray:
    """``y_I = |S_I| / |S|`` — unbiased estimate of ``p(I)``."""
    return sample_set.fraction(starts, stops)


def observed_collision_probability(samples: np.ndarray) -> float:
    """``coll(S) / C(|S|, 2)`` of a full sample array.

    The [GR00] statistic: its expectation is ``||p||_2^2``.  Requires at
    least two samples.
    """
    samples = np.asarray(samples)
    if samples.size < 2:
        raise InsufficientSamplesError(
            f"need >= 2 samples for a collision probability, got {samples.size}"
        )
    from repro.samples.collision import collision_count

    return collision_count(samples) / pairs_count(samples.size)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Element-wise ratio of equal-shape arrays, 0 where the denominator is 0.

    An interval holding fewer than two samples exhibits no collision pairs;
    its observed collision probability is defined as 0 (the safe, accepting
    direction — README.md, "Design notes").
    """
    out = np.zeros(denominator.shape)
    np.divide(numerator, denominator, out=out, where=denominator > 0)
    return out


def absolute_second_moment_estimate(
    sketch: CollisionSketch, starts: int | np.ndarray, stops: int | np.ndarray
) -> float | np.ndarray:
    """Lemma 1 estimator: ``coll(S_I) / C(|S|, 2) ~ sum_{i in I} p_i^2``."""
    if sketch.size < 2:
        raise InsufficientSamplesError(
            f"need >= 2 samples, sketch holds {sketch.size}"
        )
    coll = np.asarray(sketch.collisions(starts, stops), dtype=np.float64)
    result = coll / pairs_count(sketch.size)
    if np.isscalar(starts) and np.isscalar(stops):
        return float(result)
    return result


def conditional_norm_estimate(
    sketch: CollisionSketch, starts: int | np.ndarray, stops: int | np.ndarray
) -> float | np.ndarray:
    """[GR00] estimator: ``coll(S_I) / C(|S_I|, 2) ~ ||p_I||_2^2``.

    Intervals with fewer than two samples yield 0 (see :func:`_ratio`).
    """
    coll = sketch.collisions(starts, stops)
    count = sketch.count(starts, stops)
    result = _ratio(np.asarray(coll), np.asarray(pairs_count(np.asarray(count))))
    if np.isscalar(starts) and np.isscalar(stops):
        return float(result)
    return result


class MultiSketch:
    """The ``r`` independent sample sets ``S^1, ..., S^r`` of the paper.

    Provides vectorised median-of-r versions of both collision estimators
    plus per-set hit counts, which is exactly the query interface the
    greedy learner (Algorithm 1) and the flatness tests (Algorithms 3/4)
    need.
    """

    def __init__(self, sketches: Sequence[CollisionSketch]) -> None:
        if not sketches:
            raise InsufficientSamplesError("MultiSketch needs at least one sketch")
        self._sketches = list(sketches)

    @classmethod
    def from_sample_sets(
        cls, sample_sets: Sequence[np.ndarray], n: int
    ) -> "MultiSketch":
        """Build from raw sample arrays (one sketch per array)."""
        return cls([CollisionSketch(s, n) for s in sample_sets])

    @property
    def num_sets(self) -> int:
        """The replication factor ``r``."""
        return len(self._sketches)

    @property
    def set_size(self) -> int:
        """``m``, the (common) size of each sample set."""
        return self._sketches[0].size

    @property
    def n(self) -> int:
        """Domain size (common to every per-set sketch)."""
        return self._sketches[0].n

    @property
    def sketches(self) -> list[CollisionSketch]:
        """The underlying per-set sketches."""
        return self._sketches

    def counts(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> np.ndarray:
        """``|S^i_I|`` for every set: shape ``(r,) + broadcast shape``."""
        return np.stack(
            [np.asarray(s.count(starts, stops)) for s in self._sketches]
        )

    def median_absolute_second_moment(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> float | np.ndarray:
        """Median-of-r Lemma 1 estimate ``z_I`` (Algorithm 1 step 4)."""
        estimates = np.stack(
            [
                np.asarray(absolute_second_moment_estimate(s, starts, stops))
                for s in self._sketches
            ]
        )
        result = np.median(estimates, axis=0)
        if np.isscalar(starts) and np.isscalar(stops):
            return float(result)
        return result

    def median_conditional_norm(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> float | np.ndarray:
        """Median-of-r [GR00] estimate of ``||p_I||_2^2`` (Eq. 28)."""
        estimates = np.stack(
            [
                np.asarray(conditional_norm_estimate(s, starts, stops))
                for s in self._sketches
            ]
        )
        result = np.median(estimates, axis=0)
        if np.isscalar(starts) and np.isscalar(stops):
            return float(result)
        return result
