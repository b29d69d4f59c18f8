"""Sample-size formulas from the paper, with a practicality knob.

Every constant below is quoted from the paper:

* ``xi = eps / (k ln(1/eps))`` — the per-interval accuracy Algorithm 1
  needs (Theorem 1 proof);
* Algorithm 1: ``ell = ln(12 n^2) / (2 xi^2)`` weight samples,
  ``r = ln(6 n^2)`` collision sets of ``m = 24 / xi^2`` samples each,
  ``q = k ln(1/eps)`` greedy rounds;
* Algorithm 2 (l2): ``r = 16 ln(6 n^2)`` sets of
  ``m = 64 ln(n) eps^-4`` samples;
* Theorem 4 (l1): same ``r`` with ``m = 2^13 sqrt(kn) eps^-5``, and the
  light-interval threshold ``16^3 sqrt(|I|) / eps^4`` in
  ``testFlatness-l1``.

The paper's constants are worst-case; at realistic ``(n, k, eps)`` they
demand hundreds of millions of samples.  Every ``from_paper`` constructor
therefore accepts ``scale``: each *set size* is multiplied by ``scale``
(``scale = 1.0`` is paper-faithful), leaving the algorithms untouched.
Experiments report the scale they used (README.md, "Experiments").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from repro.errors import InvalidParameterError


def _validate_common(n: int, epsilon: float) -> None:
    validate_k(n, name="n")
    validate_epsilon(epsilon)


def validate_epsilon(epsilon: float) -> float:
    """The one check on an accuracy ``epsilon``; returns a ``float``.

    The value must be a real number strictly inside ``(0, 1)``.  Bools,
    strings and other non-real values are refused, and so is NaN, which
    fails every comparison.  Callers pass the returned ``float`` on.
    """
    # ``float`` (``np.float64`` too) is tried first: the ``Real`` ABC check
    # is slower, and every tester, min-k and probe call validates once.
    real = isinstance(epsilon, float) or (
        isinstance(epsilon, Real) and not isinstance(epsilon, bool)
    )
    if not real or not 0.0 < epsilon < 1.0:
        raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return float(epsilon)


def is_integer(value) -> bool:
    """Whether ``value`` equals an integer (``int(value) == value``).

    Bools are refused, though they compare equal to 0 and 1; so are
    strings, NaN and infinities.
    """
    if type(value) is int:  # the common case, without the slow checks
        return True
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def validate_k(k: int, n: int | None = None, *, name: str = "k") -> int:
    """The one "positive integer" check (a piece count, ``n``, a size).

    The value must pass :func:`is_integer` and be at least 1, and at
    most ``n`` when ``n`` is given.  Callers pass the returned ``int``
    on, so ``2.0`` becomes ``2``.
    """
    if not is_integer(k) or k < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {k!r}")
    if n is not None and k > n:
        raise InvalidParameterError(f"{name} must be in [1, n], got {name}={k}, n={n}")
    return int(k)


def validate_member(member: int, size: int) -> int:
    """The one fleet-member index check; returns an ``int``.

    The value must pass :func:`is_integer` and lie in ``[0, size)``, so
    ``0.7``, ``True`` and ``"1"`` are refused rather than truncated or
    coerced, and ``-1`` does not alias the last member.
    """
    if type(member) is int and 0 <= member < size:  # the common case, cheaply
        return member
    if not is_integer(member) or not 0 <= member < size:
        raise InvalidParameterError(f"member must be in [0, {size}), got {member!r}")
    return int(member)


#: Algorithm 1's candidate strategies: Theorem 2's grid ``T'`` or every
#: interval (Theorem 1).
LEARN_METHODS = ("fast", "exhaustive")


def validate_method(method: str) -> str:
    """The one check on a learner ``method``; returns it."""
    if not isinstance(method, str) or method not in LEARN_METHODS:
        raise InvalidParameterError(
            f"method must be one of {LEARN_METHODS}, got {method!r}"
        )
    return method


def _validate_scale(scale: float) -> None:
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(
            f"scale must be in (0, 1] (1.0 = paper-faithful), got {scale}"
        )


def xi(k: int, epsilon: float) -> float:
    """``xi = eps / (k ln(1/eps))`` — Algorithm 1's interval accuracy."""
    validate_k(k)
    validate_epsilon(epsilon)
    return epsilon / (k * math.log(1.0 / epsilon))


def greedy_rounds(k: int, epsilon: float) -> int:
    """``q = ceil(k ln(1/eps))`` — greedy iterations (Theorem 1 proof)."""
    validate_k(k)
    validate_epsilon(epsilon)
    return max(1, math.ceil(k * math.log(1.0 / epsilon)))


def _odd_at_least(value: float, minimum: int) -> int:
    """Round up to an odd integer >= minimum (medians want odd r)."""
    result = max(minimum, math.ceil(value))
    if result % 2 == 0:
        result += 1
    return result


@dataclass(frozen=True)
class GreedyParams:
    """Resolved sample sizes for the greedy learner (Algorithm 1).

    Attributes
    ----------
    weight_sample_size:
        ``ell`` — size of the single weight-estimation sample ``S``.
    collision_sets:
        ``r`` — number of independent collision sample sets.
    collision_set_size:
        ``m`` — size of each collision set.
    rounds:
        ``q`` — greedy iterations.
    scale:
        The scale the sizes were derived with (for reporting).
    """

    weight_sample_size: int
    collision_sets: int
    collision_set_size: int
    rounds: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("weight_sample_size", "collision_sets", "collision_set_size", "rounds"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1")
        # A set of one sample has C(1, 2) = 0 pairs: every z would be 0/0.
        if self.collision_set_size < 2:
            raise InvalidParameterError("collision_set_size must be >= 2")

    @property
    def total_samples(self) -> int:
        """Total samples the learner draws."""
        return self.weight_sample_size + self.collision_sets * self.collision_set_size

    @classmethod
    def from_paper(
        cls, n: int, k: int, epsilon: float, scale: float = 1.0
    ) -> "GreedyParams":
        """Algorithm 1's sizes: ``ell = ln(12 n^2)/(2 xi^2)``,
        ``r = ln(6 n^2)``, ``m = 24 / xi^2``, ``q = k ln(1/eps)``."""
        _validate_common(n, epsilon)
        validate_k(k)
        _validate_scale(scale)
        accuracy = xi(k, epsilon)
        ell = math.ceil(scale * math.log(12 * n * n) / (2 * accuracy**2))
        sets = _odd_at_least(math.log(6 * n * n), 3)
        set_size = math.ceil(scale * 24 / accuracy**2)
        return cls(
            weight_sample_size=max(ell, 16),
            collision_sets=sets,
            collision_set_size=max(set_size, 16),
            rounds=greedy_rounds(k, epsilon),
            scale=scale,
        )


@dataclass(frozen=True)
class TesterParams:
    """Resolved sample sizes for the tiling k-histogram testers.

    Attributes
    ----------
    num_sets:
        ``r = 16 ln(6 n^2)`` independent sample sets.
    set_size:
        ``m`` — per-set sample count (norm-dependent, see constructors).
    scale:
        The scale the sizes were derived with (for reporting).
    """

    __test__ = False  # not a pytest class, despite the name

    num_sets: int
    set_size: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_sets < 1 or self.set_size < 2:
            raise InvalidParameterError("need num_sets >= 1 and set_size >= 2")

    @property
    def total_samples(self) -> int:
        """Total samples the tester draws."""
        return self.num_sets * self.set_size

    @classmethod
    def l2_from_paper(
        cls, n: int, epsilon: float, scale: float = 1.0
    ) -> "TesterParams":
        """Theorem 3: ``r = 16 ln(6 n^2)``, ``m = 64 ln(n) / eps^4``."""
        _validate_common(n, epsilon)
        _validate_scale(scale)
        sets = _odd_at_least(16 * math.log(6 * n * n), 3)
        set_size = math.ceil(scale * 64 * math.log(max(n, 2)) / epsilon**4)
        return cls(num_sets=sets, set_size=max(set_size, 16), scale=scale)

    @classmethod
    def l1_from_paper(
        cls, n: int, k: int, epsilon: float, scale: float = 1.0
    ) -> "TesterParams":
        """Theorem 4: ``r = 16 ln(6 n^2)``, ``m = 2^13 sqrt(kn) / eps^5``."""
        _validate_common(n, epsilon)
        validate_k(k)
        _validate_scale(scale)
        sets = _odd_at_least(16 * math.log(6 * n * n), 3)
        set_size = math.ceil(scale * (2**13) * math.sqrt(k * n) / epsilon**5)
        return cls(num_sets=sets, set_size=max(set_size, 16), scale=scale)


def flatness_l1_min_hits(
    length: "int | np.ndarray", epsilon: float
) -> "float | np.ndarray":
    """``testFlatness-l1`` step 1: ``|S^i_I| >= 16^3 sqrt(|I|) / eps^4``.

    Derived in the Theorem 4 proof from ``|S_I| >= 16 sqrt(|I|) / delta^2``
    with ``delta = eps^2 / 16``.  ``length`` may be an array of interval
    lengths; ``np.sqrt`` is correctly rounded, as ``math.sqrt`` is, so
    the bits match either way.
    """
    if np.asarray(length).min(initial=1) < 1:
        raise InvalidParameterError(f"interval length must be >= 1, got {length}")
    return _l1_min_hits(length, validate_epsilon(epsilon))


def _l1_min_hits(length: "int | np.ndarray", epsilon: float) -> "float | np.ndarray":
    """:func:`flatness_l1_min_hits` on validated inputs.

    The flatness kernel calls it once per batch of probes whose lengths
    and epsilon its oracle has already checked.
    """
    return (16**3) * np.sqrt(length) / epsilon**4
