"""Identity testing against an explicit distribution ([BFF+01]-style).

The paper's related work frames its problem against *identity testing*:
given samples from ``p`` and an explicit ``q``, decide ``p = q`` versus
``||p - q|| > eps``.  Uniformity testing (q = uniform) is the special
case the paper builds on; this module provides the general l2 version as
a substrate, using the same collision machinery:

    ||p - q||_2^2 = ||p||_2^2 - 2 <p, q> + ||q||_2^2

where ``||p||_2^2`` is estimated by the observed collision probability
([GR00]) and the cross term by the unbiased estimator
``<p, q> ~ (1/m) sum_i q(x_i)`` over samples ``x_i ~ p``.

The collision statistic is read off a compiled
:class:`~repro.samples.collision.CollisionSketch` (which also performs
the domain validation), mirroring the flatness/uniformity stack:
:func:`test_identity_l2_on_sketch` is the pure half over an
already-built sketch, :func:`test_identity_l2` the draw-and-run
composition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import validate_epsilon, validate_k
from repro.distributions.distances import as_pmf
from repro.errors import InsufficientSamplesError, InvalidParameterError
from repro.samples.collision import CollisionSketch
from repro.utils.prefix import pairs_count
from repro.utils.rng import as_rng

from dataclasses import dataclass


@dataclass(frozen=True)
class IdentityResult:
    """Output of the l2 identity tester.

    ``statistic`` is the (possibly slightly negative, noise) unbiased
    estimate of ``||p - q||_2^2``; the verdict compares it against
    ``threshold = eps^2 / 2``.
    """

    accepted: bool
    statistic: float
    threshold: float
    epsilon: float
    samples_used: int


def identity_sample_size(n: int, epsilon: float, constant: float = 24.0) -> int:
    """``m = constant * sqrt(n) / eps^2`` — the l2-tester budget.

    The l2 statistic's variance is dominated by the collision term, same
    as uniformity testing, giving the classical ``O(sqrt(n)/eps^2)``.
    """
    validate_k(n, name="n")
    epsilon = validate_epsilon(epsilon)
    return max(16, math.ceil(constant * math.sqrt(n) / epsilon**2))


def test_identity_l2_on_sketch(
    sketch: CollisionSketch,
    samples: np.ndarray,
    reference: object,
    epsilon: float,
) -> IdentityResult:
    """Identity verdict from an already-built sketch (no source access).

    ``sketch`` must be built over ``samples`` (the raw array is still
    needed for the cross term ``(1/m) sum_i q(x_i)``); ``||p||_2^2``
    comes from the sketch's compiled pair prefix in O(1).  Pure in both
    inputs.
    """
    epsilon = validate_epsilon(epsilon)
    q = as_pmf(reference)
    if q.shape[0] != sketch.n:
        raise InvalidParameterError(
            f"reference has {q.shape[0]} elements, sketch domain is {sketch.n}"
        )
    if sketch.size < 2:
        raise InsufficientSamplesError(
            f"need >= 2 samples for a collision probability, got {sketch.size}"
        )
    p_norm_sq = sketch.total_collisions / pairs_count(sketch.size)
    cross = float(q[samples].mean())
    q_norm_sq = float(np.dot(q, q))
    statistic = p_norm_sq - 2.0 * cross + q_norm_sq
    threshold = epsilon**2 / 2.0
    return IdentityResult(
        accepted=statistic <= threshold,
        statistic=float(statistic),
        threshold=threshold,
        epsilon=epsilon,
        samples_used=sketch.size,
    )


def test_identity_l2(
    source: object,
    reference: object,
    epsilon: float,
    *,
    scale: float = 1.0,
    constant: float = 24.0,
    rng: "int | None | np.random.Generator" = None,
) -> IdentityResult:
    """Accept if ``p = q`` (the explicit ``reference``), reject if
    ``||p - q||_2 > eps``.

    Parameters
    ----------
    source:
        Sample access to the unknown ``p``.
    reference:
        The explicit ``q`` (pmf array, distribution, or histogram).
    epsilon:
        l2 accuracy.  Note the l2 regime: distributions with small
        point masses are all l2-close, so meaningful epsilons depend on
        the scale of ``q``'s heaviest elements.
    scale / constant / rng:
        As in :func:`repro.core.uniformity.test_uniformity`.
    """
    epsilon = validate_epsilon(epsilon)
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(f"scale must be in (0, 1], got {scale}")
    q = as_pmf(reference)
    n = q.shape[0]
    size = max(16, math.ceil(scale * identity_sample_size(n, epsilon, constant)))
    samples = np.asarray(source.sample(size, as_rng(rng)))
    return test_identity_l2_on_sketch(
        CollisionSketch(samples, n), samples, reference, epsilon
    )
