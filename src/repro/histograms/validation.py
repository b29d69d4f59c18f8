"""Shared validation helpers for histogram constructors."""

from __future__ import annotations

import numpy as np

from repro.core.params import validate_k
from repro.errors import InvalidHistogramError


def validate_domain_size(n: int) -> int:
    """Check that the domain size ``n`` is a positive integer and return it."""
    return validate_k(n, name="domain size n")


def validate_boundaries(boundaries: np.ndarray, n: int) -> np.ndarray:
    """Validate tiling boundaries ``0 = b_0 < b_1 < ... < b_k = n``.

    Returns the boundaries as an ``int64`` array.  Raises
    :class:`InvalidHistogramError` on any violation.
    """
    bounds = np.asarray(boundaries, dtype=np.int64)
    if bounds.ndim != 1 or bounds.shape[0] < 2:
        raise InvalidHistogramError(
            f"boundaries must be a 1-d array with >= 2 entries, got shape {bounds.shape}"
        )
    if bounds[0] != 0 or bounds[-1] != n:
        raise InvalidHistogramError(
            f"boundaries must start at 0 and end at n={n}, got {bounds[0]}..{bounds[-1]}"
        )
    if np.any(np.diff(bounds) <= 0):
        raise InvalidHistogramError("boundaries must be strictly increasing")
    return bounds


def validate_values(values: np.ndarray, num_pieces: int) -> np.ndarray:
    """Validate per-piece values: finite, non-negative, one per piece."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (num_pieces,):
        raise InvalidHistogramError(
            f"expected {num_pieces} values, got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise InvalidHistogramError("histogram values must be finite")
    if np.any(vals < 0):
        raise InvalidHistogramError("histogram values must be non-negative")
    return vals
