"""`HistogramSession`: draw once, sketch once, answer many questions.

The paper's headline is sub-linear *sample* complexity per call — but a
workload that asks several questions of the same distribution (a
``(k, epsilon)`` grid, model selection, learn-then-test pipelines) would
re-draw and re-sketch for every call.  :class:`HistogramSession`
amortises that: constructed from any
:class:`~repro.api.SampleSource`, it maintains one growable sample pool
per sketch family (see :class:`~repro.api.SketchBundle`) and answers

* :meth:`learn` / :meth:`learn_many` — Algorithm 1 (Theorems 1/2),
* :meth:`test_l2` / :meth:`test_l1` / :meth:`test_many` — Algorithm 2
  (Theorems 3/4),
* :meth:`min_k` — the smallest credible bucket count,

with cross-call caching of raw draws, built sketches, and compiled
candidate grids.  A session is a one-member
:class:`~repro.api.HistogramFleet`: each operation is the fleet's, over
its one member, so both facades share one budget resolution, one
compile path and one learn, tester and min-k body.  Its snapshot is
the fleet's too: the fleet owns the compiled testers it writes.

Sharing samples across calls is sound for the same reason
:meth:`min_k` may share them across candidate ``k``: the analyses
union-bound over all ``n^2`` intervals, so every estimate is
simultaneously valid.  (The price is that answers are
*correlated* — repeated calls do not give independent 2/3-confidence
amplification; open a fresh session per independent trial for that.)

A fresh session's *first* sampling operation draws exactly what the
paper's draw-then-run composition would at the same seed — one weight
sample then ``r`` collision sets for a learn
(:func:`~repro.core.greedy.draw_greedy_samples`), ``r`` consecutive
sets for a tester or min-k call — so its result is seed-for-seed the
pure halves' result on that draw.  Later operations share the generator,
so once any draw has happened the other family's fill (correctly) draws
different samples than a fresh session would.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.api.fleet import HistogramFleet
from repro.api.source import SampleSource
from repro.core.params import GreedyParams, TesterParams
from repro.core.results import LearnResult, TestResult
from repro.core.selection import SelectionResult


class HistogramSession:
    """Batched learn/test facade over one shared sample budget.

    Parameters
    ----------
    source:
        Anything :func:`repro.api.as_sample_source` accepts — a
        distribution, a reservoir, or a raw value array.
    n:
        Domain size.
    rng:
        Seed or generator; owns every draw the session makes.
    scale / method / learn_budget / test_budget / max_candidates:
        As in :class:`~repro.api.HistogramFleet`, whose one member this
        session is.
    """

    def __init__(
        self,
        source: object,
        n: int,
        *,
        rng: int | None | np.random.Generator = None,
        scale: float = 1.0,
        method: str = "fast",
        learn_budget: GreedyParams | None = None,
        test_budget: TesterParams | None = None,
        max_candidates: int | None = None,
    ) -> None:
        self._fleet = HistogramFleet(
            [source],
            n,
            rngs=[rng],
            scale=scale,
            method=method,
            learn_budget=learn_budget,
            test_budget=test_budget,
            max_candidates=max_candidates,
        )
        self._bundle = self._fleet.bundle(0)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def n(self) -> int:
        """Domain size."""
        return self._fleet.n

    @property
    def source(self) -> SampleSource:
        """The normalised sample source."""
        return self._bundle._source

    @property
    def samples_drawn(self) -> int:
        """Total samples drawn from the source so far."""
        return self._bundle.samples_drawn

    @property
    def draw_events(self) -> dict[str, int]:
        """Pool-filling draw events per sketch family (diagnostics)."""
        return dict(self._bundle.draw_events)

    @property
    def generation(self) -> int:
        """Mutation epoch of the underlying bundle.

        Monotonically increasing; two reads of the same value bracket a
        span in which no retained sketch state changed, so any derived
        answer computed in between is still valid.
        """
        return self._bundle.generation

    def invalidate(self) -> None:
        """Forget all drawn samples and sketches.

        Call after the source's contents change (e.g. a reservoir that
        absorbed new stream items); the next operation re-draws.
        """
        self._fleet.invalidate(0)

    def snapshot(self, path) -> None:
        """Write this session's warm state (pools, sketches, rng) to ``path``.

        The one-member fleet's snapshot (:meth:`HistogramFleet.snapshot`):
        the write is crash-safe (temp file + fsync + atomic rename), and
        the file records the fleet's configuration.
        """
        self._fleet.snapshot(path)

    def restore(self, path) -> None:
        """Adopt a snapshot's warm state in place (zero-copy mmap views).

        Raises :class:`~repro.errors.SnapshotError` on a missing,
        corrupt, or mismatched snapshot — one taken under another
        ``n``, ``method`` or ``max_candidates``, or not by a session or
        one-member fleet — and the session stays usable and rebuilds
        cold.  See :meth:`HistogramFleet.restore`.
        """
        self._fleet.restore(path)

    # -------------------------------------------------------------- #
    # learning
    # -------------------------------------------------------------- #

    def learn(
        self,
        k: int,
        epsilon: float,
        *,
        method: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
    ) -> LearnResult:
        """Learn a near-optimal k-histogram from the shared pool.

        See :meth:`HistogramFleet.learn` for the guarantee.  Samples and
        compiled sketches are reused across calls whenever the resolved
        sizes allow it.
        """
        return self._fleet.learn(
            k, epsilon, method=method, params=params, max_candidates=max_candidates
        )[0]

    def prefetch_learn(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        params: GreedyParams | None = None,
    ) -> None:
        """Grow the learn-family pool to cover a planned grid up front
        (see :meth:`HistogramFleet.prefetch_learn`)."""
        self._fleet.prefetch_learn(grid, params=params)

    def learn_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        method: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
    ) -> list[LearnResult]:
        """:meth:`learn` for every ``(k, epsilon)`` point of a grid.

        The whole grid is planned before anything is drawn, so the batch
        issues at most one draw event for the learn family regardless of
        grid size (see :meth:`HistogramFleet.learn_many`).
        """
        return self._fleet.learn_many(
            grid, method=method, params=params, max_candidates=max_candidates
        )[0]

    # -------------------------------------------------------------- #
    # testing
    # -------------------------------------------------------------- #

    def test_l2(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
    ) -> TestResult:
        """Theorem 3 tester (l2 norm) over the shared test-family pool.

        Runs on the cached :class:`~repro.core.flatness.CompiledTesterSketches`,
        sharing its flatness-verdict memo with every other tester or
        min-k call on the same budget.  At ``scale = 1``, members are
        accepted and distributions eps-far in l2 are rejected, each with
        probability at least 2/3.
        """
        return self._fleet.test_l2(k, epsilon, params=params)[0]

    def test_l1(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
    ) -> TestResult:
        """Theorem 4 tester (l1 norm) over the shared test-family pool."""
        return self._fleet.test_l1(k, epsilon, params=params)[0]

    def test_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        norm: str = "l2",
        params: TesterParams | None = None,
    ) -> list[TestResult]:
        """Run the tester at every ``(k, epsilon)`` point of a grid.

        Like :meth:`learn_many`, the pool is grown once to the largest
        resolved budget before any point runs.  Grid points whose
        resolved budgets coincide share one compiled oracle, so interval
        verdicts established at one ``k`` are free at every other — the
        binary searches of nearby points mostly overlap.
        """
        return self._fleet.test_many(grid, norm=norm, params=params)[0]

    # -------------------------------------------------------------- #
    # model selection
    # -------------------------------------------------------------- #

    def min_k(
        self,
        epsilon: float,
        *,
        max_k: int | None = None,
        norm: str = "l1",
        params: TesterParams | None = None,
    ) -> SelectionResult:
        """Smallest piece count the flat partition needs, up to ``max_k``.

        ``max_k`` defaults to ``n``.  For ``norm="l2"`` the answer is the
        smallest ``k`` :meth:`test_l2` accepts on the same samples.  For
        ``norm="l1"`` it may be larger than the smallest ``k``
        :meth:`test_l1` accepts: the sweep tests light intervals at
        ``max_k``'s scale, not at each ``k``'s.  See
        :func:`repro.core.selection.select_min_k_on_fleet`.  Shares
        the test-family pool with :meth:`test_l1` / :meth:`test_l2`:
        after any tester call with a compatible budget, model selection
        is sample-free, and it inherits the flatness-verdict memo, so
        intervals those calls already certified are not re-estimated.
        """
        return self._fleet.min_k(epsilon, max_k=max_k, norm=norm, params=params)[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramSession(n={self.n}, samples_drawn={self.samples_drawn}, "
            f"draw_events={self.draw_events})"
        )
