"""`HistogramSession`: draw once, sketch once, answer many questions.

The paper's headline is sub-linear *sample* complexity, and the one-shot
entry points honour it per call — but a workload that asks several
questions of the same distribution (a ``(k, epsilon)`` grid, model
selection, learn-then-test pipelines) re-draws and re-sketches for every
call.  :class:`HistogramSession` amortises that: constructed from any
:class:`~repro.api.SampleSource`, it maintains one growable sample pool
per sketch family (see :class:`~repro.api.SketchBundle`) and answers

* :meth:`learn` / :meth:`learn_many` — Algorithm 1 (Theorems 1/2),
* :meth:`test_l2` / :meth:`test_l1` / :meth:`test_many` — Algorithm 2
  (Theorems 3/4),
* :meth:`min_k` — the smallest credible bucket count,

with cross-call caching of raw draws, built sketches, and compiled
candidate grids.  Sharing samples across calls is sound for the same
reason :func:`repro.core.selection.estimate_min_k` may share them across
candidate ``k``: the analyses union-bound over all ``n^2`` intervals, so
every estimate is simultaneously valid.  (The price is that answers are
*correlated* — repeated calls do not give independent 2/3-confidence
amplification; open a fresh session per independent trial for that.)

A fresh session's *first* sampling operation is seed-for-seed identical
to the corresponding legacy function — it performs the same draws in the
same order as :func:`~repro.core.greedy.learn_histogram`,
:func:`~repro.core.tester.test_k_histogram_l2` /
:func:`~repro.core.tester.test_k_histogram_l1`, or
:func:`~repro.core.selection.estimate_min_k`.  Later operations share
the generator, so once any draw has happened the other family's fill
(correctly) no longer reproduces a legacy call at the same seed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from repro.api.sketches import SketchBundle
from repro.api.source import SampleSource, as_sample_source
from repro.core.greedy import LockstepRun, lockstep_learn
from repro.core.params import GreedyParams, TesterParams, greedy_rounds
from repro.core.results import LearnResult, TestResult
from repro.core.selection import SelectionResult, select_min_k_on_sketch
from repro.core.tester import (
    test_l1_on_sketch,
    test_l2_on_sketch,
    validate_tester_engine,
)
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
        budget or params are given (as in the legacy functions).
    method:
        Default learner candidate strategy, ``"fast"`` or
        ``"exhaustive"``.
    tester_engine:
        Default tester flatness engine, ``"compiled"`` (precompiled
        prefix gathers plus a memoised oracle, shared across every
        tester/min-k call on one budget) or ``"full"`` (per-query
        searches; the byte-identical reference path).
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
        tester_engine: str = "compiled",
        learn_budget: GreedyParams | None = None,
        test_budget: TesterParams | None = None,
        max_candidates: int | None = None,
    ) -> None:
        if int(n) != n or n < 1:
            raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
        validate_tester_engine(tester_engine)
        self._source: SampleSource = as_sample_source(source, n)
        self._n = int(n)
        self._rng = as_rng(rng)
        self._scale = float(scale)
        self._method = method
        self._tester_engine = tester_engine
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

        Semantics of :func:`repro.core.greedy.learn_histogram`; samples
        and compiled sketches are reused across calls whenever the
        resolved sizes allow it.  A one-point :meth:`learn_many`.
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
        runs = []
        for k, epsilon in points:
            resolved = self._learn_params(k, epsilon, params)
            _, compiled = self._bundle.compiled_sketches(
                resolved, method=method, max_candidates=max_candidates
            )
            runs.append(
                LockstepRun(compiled=compiled, params=resolved, method=method, n=self._n)
            )
        return lockstep_learn(runs)

    # -------------------------------------------------------------- #
    # testing
    # -------------------------------------------------------------- #

    def _tester_inputs(self, resolved: TesterParams, engine: str | None):
        """Resolve the engine plus (multi, compiled) for one tester call."""
        engine = self._tester_engine if engine is None else engine
        validate_tester_engine(engine)
        if engine == "compiled":
            multi, compiled = self._bundle.compiled_tester(resolved)
        else:
            multi, compiled = self._bundle.multi_sketch(resolved), None
        return engine, multi, compiled

    def test_l2(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
        engine: str | None = None,
    ) -> TestResult:
        """Theorem 3 tester (l2 norm) over the shared test-family pool.

        With ``engine="compiled"`` (the session default) the call runs on
        the cached :class:`~repro.core.flatness.CompiledTesterSketches`,
        sharing its flatness-verdict memo with every other tester or
        min-k call on the same budget.
        """
        resolved = self._test_params("l2", k, epsilon, params)
        engine, multi, compiled = self._tester_inputs(resolved, engine)
        return test_l2_on_sketch(
            multi, self._n, k, epsilon, resolved, engine=engine, compiled=compiled
        )

    def test_l1(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
        engine: str | None = None,
    ) -> TestResult:
        """Theorem 4 tester (l1 norm) over the shared test-family pool."""
        resolved = self._test_params("l1", k, epsilon, params)
        engine, multi, compiled = self._tester_inputs(resolved, engine)
        return test_l1_on_sketch(
            multi, self._n, k, epsilon, resolved, engine=engine, compiled=compiled
        )

    def test_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        norm: str = "l2",
        params: TesterParams | None = None,
        engine: str | None = None,
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
        points = list(grid)
        if points:
            resolved = [self._test_params(norm, k, e, params) for k, e in points]
            self._bundle.ensure_tester_pool(
                TesterParams(
                    num_sets=max(p.num_sets for p in resolved),
                    set_size=max(p.set_size for p in resolved),
                )
            )
        runner = self.test_l2 if norm == "l2" else self.test_l1
        return [runner(k, epsilon, params=params, engine=engine) for k, epsilon in points]

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
        engine: str | None = None,
    ) -> SelectionResult:
        """Smallest accepted ``k`` (semantics of :func:`estimate_min_k`).

        Shares the test-family pool with :meth:`test_l1` /
        :meth:`test_l2`: after any tester call with a compatible budget,
        model selection is sample-free — and on the compiled engine it
        additionally inherits the flatness-verdict memo, so intervals
        those calls already certified are not re-estimated.
        """
        if max_k is None:
            max_k = self._n
        if not 1 <= max_k <= self._n:
            raise InvalidParameterError(f"max_k must be in [1, n], got {max_k}")
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        resolved = self._test_params(norm, max_k, epsilon, params)
        engine, multi, compiled = self._tester_inputs(resolved, engine)
        return select_min_k_on_sketch(
            multi,
            self._n,
            epsilon,
            max_k=max_k,
            norm=norm,
            params=resolved,
            engine=engine,
            compiled=compiled,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramSession(n={self._n}, samples_drawn={self.samples_drawn}, "
            f"draw_events={self.draw_events})"
        )
