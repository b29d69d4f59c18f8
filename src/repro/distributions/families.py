"""Named distribution families used as experiment workloads.

YES-side families (exact tiling k-histograms):

* :func:`uniform` — the 1-histogram;
* :func:`random_tiling_histogram` — random boundaries + Dirichlet masses;
* :func:`two_level` — a heavy band over a light background.

NO-side families (far from coarse histograms, certified by the DP in
:mod:`repro.distributions.property_distance`):

* :func:`sawtooth` — alternating high/low teeth, the canonical far
  instance (fine structure everywhere);
* :func:`linear_ramp` / :func:`geometric` / :func:`zipf` — monotone
  densities with no flat pieces;
* :func:`gaussian_mixture` — smooth bumps;
* :func:`dirichlet_random` — unstructured noise.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import validate_k
from repro.distributions.base import DiscreteDistribution
from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng


def _check_n(n: int) -> int:
    return validate_k(n, name="n")


def uniform(n: int) -> DiscreteDistribution:
    """The uniform distribution over ``[0, n)`` (a tiling 1-histogram)."""
    n = _check_n(n)
    return DiscreteDistribution(np.full(n, 1.0 / n))


def random_tiling_histogram(
    n: int,
    k: int,
    rng: int | None | np.random.Generator = None,
    alpha: float = 1.0,
    min_piece: int = 1,
) -> DiscreteDistribution:
    """A random tiling k-histogram distribution (YES instance).

    ``k - 1`` internal boundaries are drawn uniformly without replacement
    (respecting ``min_piece``), and piece masses are Dirichlet(``alpha``).
    The result is an exact tiling k-histogram by construction.
    """
    n = _check_n(n)
    if not 1 <= k <= n // max(min_piece, 1):
        raise InvalidParameterError(
            f"k={k} does not fit domain n={n} with min_piece={min_piece}"
        )
    generator = as_rng(rng)
    if min_piece == 1:
        internal = generator.choice(np.arange(1, n), size=k - 1, replace=False)
    else:
        # Choose piece lengths >= min_piece via a random composition.
        extra = generator.multinomial(n - k * min_piece, np.full(k, 1.0 / k))
        lengths = extra + min_piece
        internal = np.cumsum(lengths)[:-1]
    boundaries = np.concatenate(([0], np.sort(internal), [n]))
    masses = generator.dirichlet(np.full(k, alpha))
    pmf = np.repeat(masses / np.diff(boundaries), np.diff(boundaries))
    return DiscreteDistribution(pmf)


def two_level(
    n: int, heavy_start: int = 0, heavy_length: int | None = None, heavy_mass: float = 0.8
) -> DiscreteDistribution:
    """A 3-piece histogram: one heavy band inside a light background.

    The heavy band ``[heavy_start, heavy_start + heavy_length)`` carries
    ``heavy_mass``; the rest of the domain shares the remainder uniformly.
    """
    n = _check_n(n)
    if heavy_length is None:
        heavy_length = max(n // 8, 1)
    if not 0 <= heavy_start < heavy_start + heavy_length <= n:
        raise InvalidParameterError("heavy band must fit inside the domain")
    if not 0.0 < heavy_mass < 1.0:
        raise InvalidParameterError(f"heavy_mass must be in (0, 1), got {heavy_mass}")
    pmf = np.full(n, (1.0 - heavy_mass) / max(n - heavy_length, 1))
    if n == heavy_length:
        pmf[:] = 0.0
    pmf[heavy_start : heavy_start + heavy_length] = heavy_mass / heavy_length
    return DiscreteDistribution.from_weights(pmf)


def zipf(n: int, exponent: float = 1.0) -> DiscreteDistribution:
    """Zipf / power-law distribution, ``p_i ~ (i + 1)^-exponent``."""
    n = _check_n(n)
    if exponent < 0:
        raise InvalidParameterError(f"exponent must be >= 0, got {exponent}")
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** (-exponent)
    return DiscreteDistribution.from_weights(weights)


def geometric(n: int, ratio: float = 0.99) -> DiscreteDistribution:
    """Truncated geometric decay, ``p_i ~ ratio^i``."""
    n = _check_n(n)
    if not 0.0 < ratio <= 1.0:
        raise InvalidParameterError(f"ratio must be in (0, 1], got {ratio}")
    weights = ratio ** np.arange(n, dtype=np.float64)
    return DiscreteDistribution.from_weights(weights)


def linear_ramp(n: int) -> DiscreteDistribution:
    """Linearly increasing density, ``p_i ~ i + 1`` (no flat piece)."""
    n = _check_n(n)
    return DiscreteDistribution.from_weights(np.arange(1, n + 1, dtype=np.float64))


def sawtooth(
    n: int, num_teeth: int | None = None, low: float = 0.25, high: float = 1.75
) -> DiscreteDistribution:
    """Alternating high/low teeth — far from every coarse histogram.

    ``num_teeth`` defaults to ``n / 2`` (period-2 zigzag), giving fine
    structure everywhere so that any k-histogram with ``k << n`` must pay
    on almost every piece.  ``low``/``high`` are relative levels (their
    mean is renormalised away).
    """
    n = _check_n(n)
    if num_teeth is None:
        num_teeth = n // 2
    if num_teeth < 1 or 2 * num_teeth > n:
        raise InvalidParameterError(
            f"num_teeth must be in [1, n/2], got {num_teeth} for n={n}"
        )
    if not 0 <= low < high:
        raise InvalidParameterError("need 0 <= low < high")
    period = n / (2.0 * num_teeth)
    phase = (np.arange(n) // period).astype(np.int64) % 2
    weights = np.where(phase == 0, high, low)
    return DiscreteDistribution.from_weights(weights)


def gaussian_mixture(
    n: int,
    centers: "list[float] | None" = None,
    widths: "list[float] | None" = None,
    weights: "list[float] | None" = None,
) -> DiscreteDistribution:
    """Discretised Gaussian bumps (smooth, no flat pieces).

    Defaults to two bumps at 30% and 70% of the domain with width ``n/16``.
    """
    n = _check_n(n)
    if centers is None:
        centers = [0.3 * n, 0.7 * n]
    if widths is None:
        widths = [n / 16.0] * len(centers)
    if weights is None:
        weights = [1.0] * len(centers)
    if not len(centers) == len(widths) == len(weights):
        raise InvalidParameterError("centers, widths, weights must have equal length")
    grid = np.arange(n, dtype=np.float64)
    pmf = np.zeros(n, dtype=np.float64)
    for center, width, weight in zip(centers, widths, weights):
        if width <= 0 or weight < 0:
            raise InvalidParameterError("widths must be > 0 and weights >= 0")
        pmf += weight * np.exp(-0.5 * ((grid - center) / width) ** 2)
    return DiscreteDistribution.from_weights(pmf)


def spikes(
    n: int, num_spikes: int, background_mass: float = 0.0
) -> DiscreteDistribution:
    """Evenly spaced point masses — the canonical *l2-far* NO instance.

    ``num_spikes`` singletons share ``1 - background_mass``; the rest of
    the domain shares ``background_mass`` uniformly.  With
    ``j = num_spikes >> k`` isolated unit-width spikes, any tiling
    k-histogram must miss most of them, leaving
    ``||p - H||_2 ~ sqrt((j - k)) / j`` — order ``1 / sqrt(j)``, far in
    l2 even though the l1 distance view would call it close.  (Plain
    zigzags are *never* l2-far for constant eps: their deviations are
    ``O(1/n)`` per element, so ``||p - H||_2 = O(1/sqrt(n))``.)
    """
    n = _check_n(n)
    if not 1 <= num_spikes <= n:
        raise InvalidParameterError(
            f"num_spikes must be in [1, n], got {num_spikes}"
        )
    if not 0.0 <= background_mass < 1.0:
        raise InvalidParameterError(
            f"background_mass must be in [0, 1), got {background_mass}"
        )
    positions = np.linspace(0, n - 1, num_spikes).astype(np.int64)
    positions = np.unique(positions)
    pmf = np.full(n, background_mass / n, dtype=np.float64)
    pmf[positions] += (1.0 - background_mass) / positions.size
    return DiscreteDistribution.from_weights(pmf)


def dirichlet_random(
    n: int, alpha: float = 1.0, rng: int | None | np.random.Generator = None
) -> DiscreteDistribution:
    """A fully random distribution, ``Dirichlet(alpha, ..., alpha)``."""
    n = _check_n(n)
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    generator = as_rng(rng)
    return DiscreteDistribution(generator.dirichlet(np.full(n, alpha)))
