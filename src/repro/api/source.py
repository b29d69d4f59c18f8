"""The `SampleSource` protocol: one formal contract for sampling access.

Every algorithm in the library consumes a distribution through a single
operation — ``sample(size, rng) -> np.ndarray`` of int64 values in
``[0, n)``.  Historically that contract was duck-typed in four separate
places (the learner, both testers, and the selection search); this module
makes it a :class:`typing.Protocol` and supplies adapters so the same
front door accepts

* :class:`repro.distributions.DiscreteDistribution` (and subclasses such
  as :class:`~repro.distributions.EmpiricalDistribution`),
* :class:`repro.streaming.ReservoirSampler` (a stream's reservoir),
* raw integer arrays / sequences of observed values (wrapped in
  :class:`ArraySource`, a with-replacement bootstrap).

The paper's collision statistics read ``r`` sets at once, so a source
may also offer ``sample_sets(num_sets, set_size, rng)``, and
:func:`draw_sets` draws one whole family through it.  A distribution's
``sample_sets`` is ``num_sets`` ``sample()`` calls on one generator, and
a source without one (an :class:`ArraySource`) gets exactly those calls,
so neither draws a bit differently.  A reservoir cuts its sets from one
permutation of the slots it holds, which keeps them free of repeated
slots; it marks that with ``disjoint_sets = True``, and the sample pools
redraw such a family whole instead of appending to its sets (see
:mod:`repro.api.sketches`).

:class:`CountingSource` instruments any source with draw accounting — the
sessions' sample-reuse guarantees are asserted against it in the test
suite and reported by the reuse benchmark.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng


@runtime_checkable
class SampleSource(Protocol):
    """Anything the algorithms can draw i.i.d. samples from."""

    def sample(
        self, size: int, rng: int | None | np.random.Generator = None
    ) -> np.ndarray:
        """Return ``size`` int64 samples from ``[0, n)``."""
        ...


class ArraySource:
    """Bootstrap sampling access over a raw column of observed values.

    Draws are uniform with replacement from the array, i.e. i.i.d. samples
    of its empirical distribution — the cheapest way to point the paper's
    algorithms at a data column without materialising a pmf first.

    Parameters
    ----------
    values:
        1-d integer array of observations.
    n:
        Domain size; defaults to ``max(values) + 1``.
    """

    __slots__ = ("_values", "_n")

    def __init__(self, values: np.ndarray, n: int | None = None) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise InvalidParameterError(
                f"values must be a 1-d array, got shape {values.shape}"
            )
        if values.size == 0:
            raise InvalidParameterError("ArraySource needs at least one value")
        if values.min() < 0:
            raise InvalidParameterError("values must be non-negative")
        inferred = int(values.max()) + 1
        if n is None:
            n = inferred
        elif n < inferred:
            raise InvalidParameterError(
                f"n={n} too small for values up to {inferred - 1}"
            )
        self._values = values
        self._n = int(n)

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    @property
    def size(self) -> int:
        """Number of underlying observations."""
        return int(self._values.size)

    def sample(
        self, size: int, rng: int | None | np.random.Generator = None
    ) -> np.ndarray:
        """Draw ``size`` values uniformly with replacement."""
        if size < 0:
            raise InvalidParameterError(f"sample size must be >= 0, got {size}")
        idx = as_rng(rng).integers(0, self._values.size, size=size)
        return self._values[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArraySource(size={self.size}, n={self._n})"


class CountingSource:
    """Wrap a source and count every draw made through it.

    ``sample_sets`` is forwarded through :func:`draw_sets`, so a wrapped
    reservoir still cuts disjoint sets, and ``disjoint_sets`` reports the
    wrapped source's.

    Attributes
    ----------
    calls:
        Number of sample arrays drawn: one per ``sample()`` call and one
        per set of a ``sample_sets()`` call.
    samples_drawn:
        Total samples returned across all calls.
    """

    __slots__ = ("_inner", "calls", "samples_drawn")

    def __init__(self, inner: SampleSource) -> None:
        self._inner = inner
        self.calls = 0
        self.samples_drawn = 0

    def sample(
        self, size: int, rng: int | None | np.random.Generator = None
    ) -> np.ndarray:
        result = self._inner.sample(size, rng)
        self.calls += 1
        self.samples_drawn += int(np.asarray(result).size)
        return result

    def sample_sets(
        self,
        num_sets: int,
        set_size: int,
        rng: int | None | np.random.Generator = None,
    ) -> list[np.ndarray]:
        sets = draw_sets(self._inner, num_sets, set_size, rng)
        self.calls += len(sets)
        self.samples_drawn += sum(int(s.size) for s in sets)
        return sets

    @property
    def disjoint_sets(self) -> bool:
        """Whether the wrapped source cuts disjoint sets."""
        return getattr(self._inner, "disjoint_sets", False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CountingSource(calls={self.calls}, samples_drawn={self.samples_drawn})"
        )


def draw_sets(
    source: SampleSource,
    num_sets: int,
    set_size: int,
    rng: int | None | np.random.Generator = None,
) -> list[np.ndarray]:
    """One family of ``num_sets`` sets of ``set_size`` samples.

    Through the source's ``sample_sets`` when it has one, else as
    ``num_sets`` ``sample()`` calls on one generator, in order (``None``
    leaves each call to the source's own default).
    """
    sample_sets = getattr(source, "sample_sets", None)
    if sample_sets is not None:
        return [np.asarray(s) for s in sample_sets(num_sets, set_size, rng)]
    generator = None if rng is None else as_rng(rng)
    return [np.asarray(source.sample(set_size, generator)) for _ in range(num_sets)]


def as_sample_source(source: object, n: int | None = None) -> SampleSource:
    """Normalise ``source`` to a :class:`SampleSource`.

    Objects already exposing ``sample(size, rng)`` pass through untouched;
    arrays and sequences are wrapped in :class:`ArraySource` (with domain
    size ``n`` when given).
    """
    if isinstance(source, SampleSource):
        return source
    if isinstance(source, (np.ndarray, list, tuple)):
        return ArraySource(np.asarray(source), n)
    raise InvalidParameterError(
        f"cannot build a SampleSource from {type(source).__name__}; need "
        "a sample(size, rng) method or a value array"
    )
