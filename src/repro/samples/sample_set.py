"""Sorted sample sets with logarithmic interval counting.

Algorithm 1 needs ``y_I = |S_I| / |S|`` for (potentially very many)
intervals ``I``; a sorted copy of the samples answers each query with two
binary searches, and a fixed grid of query points can be "compiled" into a
prefix array so the greedy inner loop pays one gather per query instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError


class SampleSet:
    """An immutable multiset of integer samples from ``[0, n)``.

    Parameters
    ----------
    samples:
        Integer array of sample values.
    n:
        Domain size (used only for validation).
    """

    __slots__ = ("_sorted", "_n")

    def __init__(self, samples: np.ndarray, n: int) -> None:
        samples = np.asarray(samples, dtype=np.int64)
        if samples.ndim != 1:
            raise InvalidParameterError(
                f"samples must be a 1-d array, got shape {samples.shape}"
            )
        if samples.size and (samples.min() < 0 or samples.max() >= n):
            raise InvalidParameterError("samples contain values outside [0, n)")
        self._sorted = np.sort(samples)
        self._sorted.flags.writeable = False
        self._n = int(n)

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    @property
    def size(self) -> int:
        """Number of samples ``|S|``."""
        return self._sorted.shape[0]

    @property
    def sorted_values(self) -> np.ndarray:
        """The samples in sorted order (read-only)."""
        return self._sorted

    def unique_values(self) -> np.ndarray:
        """Distinct sample values, sorted."""
        return np.unique(self._sorted)

    def count(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> int | np.ndarray:
        """``|S_I|`` for half-open intervals ``[starts, stops)``.

        Vectorised: ``starts``/``stops`` may be arrays (broadcast together).
        """
        lo = np.searchsorted(self._sorted, starts, side="left")
        hi = np.searchsorted(self._sorted, stops, side="left")
        result = hi - lo
        if np.isscalar(starts) and np.isscalar(stops):
            return int(result)
        return result

    def fraction(
        self, starts: int | np.ndarray, stops: int | np.ndarray
    ) -> float | np.ndarray:
        """``|S_I| / |S|`` — the weight estimate ``y_I`` of Algorithm 1."""
        if self.size == 0:
            raise InvalidParameterError("cannot estimate from an empty sample set")
        counts = self.count(starts, stops)
        result = np.asarray(counts, dtype=np.float64) / self.size
        if np.isscalar(starts) and np.isscalar(stops):
            return float(result)
        return result

    def count_prefix_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Counts of samples below each grid point.

        For a sorted point array ``grid``, returns ``P`` with
        ``P[i] = |{s in S : s < grid[i]}|`` so that the count over
        ``[grid[i], grid[j])`` is ``P[j] - P[i]``.  The dtype
        normalisation is copy-free where ``searchsorted`` already
        produced int64 (every 64-bit platform), keeping the compile path
        allocation-light.
        """
        return np.searchsorted(self._sorted, np.asarray(grid), side="left").astype(
            np.int64, copy=False
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampleSet(size={self.size}, n={self._n})"
