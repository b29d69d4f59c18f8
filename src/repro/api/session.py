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
candidate grids.  Sharing samples across calls is sound for the same
reason :meth:`min_k` may share them across candidate ``k``: the
analyses union-bound over all ``n^2`` intervals, so
every estimate is simultaneously valid.  (The price is that answers are
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
from dataclasses import replace

import numpy as np

from repro.api.sketches import SketchBundle
from repro.api.source import SampleSource, as_sample_source
from repro.core.greedy import LockstepRun, lockstep_learn
from repro.core.params import (
    GreedyParams,
    TesterParams,
    greedy_rounds,
    validate_epsilon,
    validate_k,
)
from repro.core.results import LearnResult, TestResult
from repro.core.selection import SelectionResult, select_min_k_on_sketch
from repro.core.tester import test_l1_on_sketch, test_l2_on_sketch
from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng


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
    scale:
        Default multiplier on the paper's sample sizes when no explicit
        budget or params are given.
    method:
        Default learner candidate strategy, ``"fast"`` or
        ``"exhaustive"``.
    learn_budget:
        Optional fixed :class:`GreedyParams` for every learn call; only
        the round count is re-derived per ``(k, epsilon)``.  A fixed
        budget is what makes a grid share one compiled sketch.
    test_budget:
        Optional fixed :class:`TesterParams` for every test/min-k call.
    max_candidates:
        Default candidate cap forwarded to the learner.
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
        validate_k(n, name="n")
        self._source: SampleSource = as_sample_source(source, n)
        self._n = int(n)
        self._rng = as_rng(rng)
        self._scale = float(scale)
        self._method = method
        self._learn_budget = learn_budget
        self._test_budget = test_budget
        self._max_candidates = max_candidates
        self._bundle = SketchBundle(self._source, self._n, self._rng)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    @property
    def source(self) -> SampleSource:
        """The normalised sample source."""
        return self._source

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
        self._bundle.invalidate()

    def snapshot(self, path) -> None:
        """Write this session's warm state (pools, sketches, rng) to ``path``.

        See :meth:`repro.api.SketchBundle.snapshot`; the write is
        crash-safe (temp file + fsync + atomic rename).
        """
        self._bundle.snapshot(path)

    def restore(self, path) -> None:
        """Adopt a snapshot's warm state in place (zero-copy mmap views).

        Raises :class:`~repro.errors.SnapshotError` on a missing,
        corrupt, or mismatched snapshot — the session stays usable and
        rebuilds cold.  See :meth:`repro.api.SketchBundle.restore`.
        """
        self._bundle.restore(path)

    # -------------------------------------------------------------- #
    # parameter resolution
    # -------------------------------------------------------------- #

    def _learn_params(
        self, k: int, epsilon: float, params: GreedyParams | None
    ) -> GreedyParams:
        # Validates k and epsilon, explicit params or not.
        rounds = greedy_rounds(k, epsilon)
        if params is not None:
            return params
        if self._learn_budget is not None:
            return replace(self._learn_budget, rounds=rounds)
        return GreedyParams.from_paper(self._n, k, epsilon, scale=self._scale)

    def _test_params(
        self, norm: str, k: int, epsilon: float, params: TesterParams | None
    ) -> TesterParams:
        validate_epsilon(epsilon)  # before any draw, explicit params or not
        if params is not None:
            return params
        if self._test_budget is not None:
            return self._test_budget
        if norm == "l2":
            return TesterParams.l2_from_paper(self._n, epsilon, scale=self._scale)
        return TesterParams.l1_from_paper(self._n, k, epsilon, scale=self._scale)

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

        The guarantee is relative to the best tiling k-histogram
        ``H*``: ``||p - H||_2^2 <= ||p - H*||_2^2 + 5 eps`` for
        ``method="exhaustive"`` (Theorem 1), ``+ 8 eps`` for
        ``method="fast"`` (Theorem 2), at ``scale = 1``.  Samples and
        compiled sketches are reused across calls whenever the resolved
        sizes allow it.  A one-point :meth:`learn_many`.
        """
        return self.learn_many(
            [(k, epsilon)], method=method, params=params, max_candidates=max_candidates
        )[0]

    def prefetch_learn(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        params: GreedyParams | None = None,
    ) -> None:
        """Grow the learn-family pool to cover a planned grid up front.

        One draw event covers the elementwise-largest resolved budget;
        the subsequent :meth:`learn` calls are then sample-free.  Useful
        on its own to move sampling cost out of a timed or
        latency-sensitive region.
        """
        resolved = [self._learn_params(k, e, params) for k, e in grid]
        if not resolved:
            return
        self._bundle.ensure_learn_pool(
            GreedyParams(
                weight_sample_size=max(p.weight_sample_size for p in resolved),
                collision_sets=max(p.collision_sets for p in resolved),
                collision_set_size=max(p.collision_set_size for p in resolved),
                rounds=1,
            )
        )

    def learn_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        method: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
    ) -> list[LearnResult]:
        """:meth:`learn` for every ``(k, epsilon)`` point of a grid.

        The whole grid is planned before anything is drawn
        (:meth:`prefetch_learn`), so the batch issues at most one draw
        event for the learn family regardless of grid size; one
        :func:`repro.core.greedy.lockstep_learn` call then runs every
        point's greedy rounds, byte-identical to calling :meth:`learn`
        per point.
        """
        points = list(grid)
        self.prefetch_learn(points, params=params)
        method = self._method if method is None else method
        if max_candidates is None:
            max_candidates = self._max_candidates
        runs = [
            self._learn_run(self._learn_params(k, epsilon, params), method, max_candidates)
            for k, epsilon in points
        ]
        return lockstep_learn(runs)

    def _learn_run(
        self, resolved: GreedyParams, method: str, max_candidates: int | None
    ) -> LockstepRun:
        """One learn, compiled (or fetched) in this session's cache.

        The fleet builds its members' runs through here too, so a fleet
        learn compiles exactly what looped sessions would, in the same
        order.
        """
        _, compiled = self._bundle.compiled_sketches(
            resolved, method=method, max_candidates=max_candidates
        )
        return LockstepRun(compiled=compiled, params=resolved, method=method, n=self._n)

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
        k = validate_k(k, self._n)
        resolved = self._test_params("l2", k, epsilon, params)
        compiled = self._bundle.compiled_tester(resolved)
        return test_l2_on_sketch(compiled, self._n, k, epsilon, resolved)

    def test_l1(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
    ) -> TestResult:
        """Theorem 4 tester (l1 norm) over the shared test-family pool."""
        k = validate_k(k, self._n)
        resolved = self._test_params("l1", k, epsilon, params)
        compiled = self._bundle.compiled_tester(resolved)
        return test_l1_on_sketch(compiled, self._n, k, epsilon, resolved)

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
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        points = [(validate_k(k, self._n), epsilon) for k, epsilon in grid]
        if points:
            resolved = [self._test_params(norm, k, e, params) for k, e in points]
            self._bundle.ensure_tester_pool(
                TesterParams(
                    num_sets=max(p.num_sets for p in resolved),
                    set_size=max(p.set_size for p in resolved),
                )
            )
        runner = self.test_l2 if norm == "l2" else self.test_l1
        return [runner(k, epsilon, params=params) for k, epsilon in points]

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
        :func:`repro.core.selection.select_min_k_on_sketch`.  Shares
        the test-family pool with :meth:`test_l1` / :meth:`test_l2`:
        after any tester call with a compatible budget, model selection
        is sample-free, and it inherits the flatness-verdict memo, so
        intervals those calls already certified are not re-estimated.
        """
        max_k = self._n if max_k is None else validate_k(max_k, self._n, name="max_k")
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        resolved = self._test_params(norm, max_k, epsilon, params)
        compiled = self._bundle.compiled_tester(resolved)
        return select_min_k_on_sketch(
            compiled, self._n, epsilon, max_k=max_k, norm=norm, params=resolved
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramSession(n={self._n}, samples_drawn={self.samples_drawn}, "
            f"draw_events={self.draw_events})"
        )
