"""Candidate interval sets for the greedy learner.

Algorithm 1 scores every interval of ``[n]`` each round (``C(n, 2)`` of
them); Theorem 2 restricts the search to intervals whose endpoints are
sample values or their +-1 neighbours (the set ``T'``), which preserves
the guarantee up to ``8 eps`` because intervals missed this way carry at
most ``xi`` weight (Lemma 2).

Candidates are expressed in *grid space*: a sorted array of endpoint
positions plus grid indices into it.  The greedy engine compiles every
sample set's prefix sums onto the grid once, making each candidate
evaluation a pure gather.  A set takes one of two forms (README.md,
"Incremental scoring"):

* a *triangle* — two sorted grid-index axes ``starts``/``stops`` whose
  candidate ``(i, j)`` exists when ``j >= i``, numbered row-major.  Both
  uncapped searches have this shape (``T'`` x ``T'`` for Theorem 2,
  ``[0, n)`` x ``(0, n]`` for Algorithm 1), and the engine scores it as
  a dense matrix;
* a *pair list* — explicit ``lo``/``hi`` index arrays, for an arbitrary
  subset of a triangle (a ``max_candidates`` cap).

A cap keeps a uniform subset drawn from a generator seeded with the
module constant ``_CAP_SEED``, never from a caller's generator, so a
capped set is a pure function of its samples, like an uncapped one: a
compile built again from the same samples is the same compile, and
capping a learn consumes no draw.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import validate_k
from repro.errors import InvalidParameterError

#: The seed of the generator a binding ``max_candidates`` cap draws its
#: subset from.  Fixed once; any value keeps an equally uniform subset.
_CAP_SEED = 0


class CandidateSet:
    """Candidate intervals over a shared endpoint grid.

    ``CandidateSet(grid, lo, hi)`` builds a pair list;
    :meth:`CandidateSet.triangle` builds the triangle form.

    Attributes
    ----------
    grid:
        Sorted unique positions; always contains 0 and ``n``.
    starts / stops:
        The triangle's strictly increasing grid-index axes (``None`` for
        a pair list); candidate ``(i, j)``, ``j >= i``, is the half-open
        interval ``[grid[starts[i]], grid[stops[j]])``.
    lo / hi:
        Index pairs into ``grid``; candidate ``c`` is the half-open
        interval ``[grid[lo[c]], grid[hi[c]])``.  A triangle builds them
        on demand, in row-major order.
    """

    __slots__ = ("grid", "starts", "stops", "_lo", "_hi")

    def __init__(self, grid: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        if lo.shape != hi.shape:
            raise InvalidParameterError("lo and hi must have equal shapes")
        if lo.size and not np.all(grid[hi] > grid[lo]):
            raise InvalidParameterError("candidates must be non-empty intervals")
        self.grid = grid
        self.starts = self.stops = None
        self._lo = lo
        self._hi = hi

    @classmethod
    def triangle(
        cls, grid: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> "CandidateSet":
        """Every ``[grid[starts[i]], grid[stops[j]])`` with ``j >= i``."""
        if starts.ndim != 1 or starts.shape != stops.shape:
            raise InvalidParameterError("starts and stops must be equal-length axes")
        if np.any(np.diff(starts) <= 0) or np.any(np.diff(stops) <= 0):
            raise InvalidParameterError("starts and stops must strictly increase")
        if not np.all(grid[stops] > grid[starts]):
            raise InvalidParameterError("candidates must be non-empty intervals")
        built = cls.__new__(cls)
        built.grid = grid
        built.starts = starts
        built.stops = stops
        built._lo = built._hi = None
        return built

    @property
    def is_triangle(self) -> bool:
        """Whether the set is a whole triangle (else an explicit pair list)."""
        return self.starts is not None

    @property
    def lo(self) -> np.ndarray:
        """Start grid index of every candidate, in candidate order."""
        if self._lo is not None:
            return self._lo
        rows, _ = np.triu_indices(self.starts.size)
        return self.starts[rows]

    @property
    def hi(self) -> np.ndarray:
        """Stop grid index of every candidate, in candidate order."""
        if self._hi is not None:
            return self._hi
        _, cols = np.triu_indices(self.stops.size)
        return self.stops[cols]

    @property
    def size(self) -> int:
        """Number of candidate intervals."""
        if self.starts is not None:
            count = int(self.starts.size)
            return count * (count + 1) // 2
        return int(self._lo.shape[0])

    def row_offsets(self) -> np.ndarray:
        """A triangle's flat candidate index of each diagonal cell ``(i, i)``."""
        rows = np.arange(self.starts.size, dtype=np.int64)
        return rows * self.starts.size - rows * (rows - 1) // 2

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Grid indices of ``points`` (which must be grid members)."""
        idx = np.searchsorted(self.grid, points)
        if np.any(self.grid[np.minimum(idx, self.grid.size - 1)] != points):
            raise InvalidParameterError("points are not all on the grid")
        return idx

    def intersecting(self, lo_index: int, hi_index: int) -> np.ndarray:
        """Indices of candidates overlapping grid span ``[lo_index, hi_index]``.

        The span denotes the half-open point region
        ``[grid[lo_index], grid[hi_index])``; because the grid is strictly
        increasing, overlap reduces to two integer comparisons per
        candidate.  This is the pair-list store's dirty-region query:
        after a commit, only candidates returned here can have changed
        scores (a triangle's dirty region is a rectangle of its axes).
        """
        return np.nonzero((self.hi > lo_index) & (self.lo < hi_index))[0]

    def subsample(self, max_candidates: int) -> "CandidateSet":
        """Uniformly subsample candidates (practicality escape hatch).

        Deviates from the paper (README.md, "Design notes"); only used when
        the caller explicitly caps the candidate count.  The kept
        positions come from one ``choice(size, size=cap, replace=False)``
        call (plus sort) on a generator seeded with ``_CAP_SEED``, in
        either form, so the same set and cap always keep the same
        candidates; a triangle inverts them to ``(i, j)``
        arithmetically, so capping never allocates the whole pair list —
        which matters out of core, where ``|T'|^2`` pairs would dwarf
        every other allocation of a learn.
        """
        max_candidates = validate_k(max_candidates, name="max_candidates")
        if self.size <= max_candidates:
            return self
        keep = np.random.default_rng(_CAP_SEED).choice(
            self.size, size=max_candidates, replace=False
        )
        keep.sort()
        if self.starts is None:
            return CandidateSet(self.grid, self._lo[keep], self._hi[keep])
        offsets = self.row_offsets()
        rows = np.searchsorted(offsets, keep, side="right") - 1
        cols = keep - offsets[rows] + rows
        return CandidateSet(self.grid, self.starts[rows], self.stops[cols])


def all_interval_candidates(n: int) -> CandidateSet:
    """Every interval of ``[0, n)`` — Algorithm 1's exhaustive search.

    The grid is ``0..n`` and candidates are all ``C(n+1, 2)`` index pairs
    (the triangle ``starts = 0..n-1`` x ``stops = 1..n``); quadratic in
    ``n``, intended for moderate domains.
    """
    validate_k(n, name="n")
    grid = np.arange(n + 1, dtype=np.int64)
    return CandidateSet.triangle(grid, grid[:-1], grid[1:])


def sample_endpoint_candidates(
    samples: np.ndarray,
    n: int,
    *,
    max_candidates: int | None = None,
) -> CandidateSet:
    """Theorem 2's restricted candidates.

    ``T' = {min(i+1, n-1), i, max(i-1, 0) : i in T}`` for the distinct
    sample values ``T`` (0-based translation of the paper's set), and the
    candidates are all closed intervals ``[a, b]`` with ``a <= b`` in
    ``T'`` — here represented half-open as ``[a, b + 1)``: the triangle
    over the axes ``T'`` and ``T' + 1``.

    ``max_candidates`` caps the pair count lazily through
    :meth:`CandidateSet.subsample`, so a capped set is a pair list that
    never materialised the uncapped one.
    """
    samples = np.asarray(samples, dtype=np.int64)
    validate_k(n, name="n")
    if samples.size == 0:
        raise InvalidParameterError("need at least one sample to build T'")
    if samples.min() < 0 or samples.max() >= n:
        raise InvalidParameterError("samples contain values outside [0, n)")
    distinct = np.unique(samples)
    t_prime = np.unique(
        np.concatenate(
            [
                np.maximum(distinct - 1, 0),
                distinct,
                np.minimum(distinct + 1, n - 1),
            ]
        )
    )
    # Closed candidate [T'[i], T'[j]] (j >= i) is half-open
    # [T'[i], T'[j] + 1); grid holds both endpoint families.
    grid = np.unique(np.concatenate([t_prime, t_prime + 1, [0, n]]))
    candidates = CandidateSet.triangle(
        grid,
        np.searchsorted(grid, t_prime).astype(np.int64),
        np.searchsorted(grid, t_prime + 1).astype(np.int64),
    )
    if max_candidates is not None:
        candidates = candidates.subsample(max_candidates)
    return candidates
