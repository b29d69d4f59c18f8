"""T9 — session reuse: one shared draw vs per-call sampling.

The facade claim (README.md "The front door"): answering a ``(k, eps)``
grid through one :class:`repro.api.HistogramSession` amortises sampling,
sketch building, and candidate-grid compilation, and must be at least 2x
faster than the same grid through a fresh session per call at the same
per-point budget.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import emit

from repro.api import CountingSource, HistogramSession
from repro.core.params import GreedyParams, TesterParams, greedy_rounds
from repro.distributions import families
from repro.experiments.harness import ExperimentResult
from repro.utils.timing import Timer

N = 2_048
DIST = families.zipf(N, 1.0)
GRID = [(2, 0.3), (4, 0.25), (6, 0.25), (8, 0.2)]
LEARN_BUDGET = GreedyParams(
    weight_sample_size=500_000,
    collision_sets=9,
    collision_set_size=150_000,
    rounds=1,  # re-derived per grid point
)
TEST_BUDGET = TesterParams(num_sets=15, set_size=60_000)
MAX_CANDIDATES = 8_000


def _per_call_learn():
    return [
        HistogramSession(DIST, N, rng=1, max_candidates=MAX_CANDIDATES).learn(
            k, eps, params=replace(LEARN_BUDGET, rounds=greedy_rounds(k, eps))
        )
        for k, eps in GRID
    ]


def _session_learn():
    session = HistogramSession(
        DIST, N, rng=1, learn_budget=LEARN_BUDGET, max_candidates=MAX_CANDIDATES
    )
    return session.learn_many(GRID), session


def _per_call_test():
    return [
        HistogramSession(DIST, N, rng=1).test_l2(k, eps, params=TEST_BUDGET)
        for k, eps in GRID
    ]


def _session_test():
    session = HistogramSession(DIST, N, rng=1, test_budget=TEST_BUDGET)
    return session.test_many(GRID, norm="l2"), session


def test_t9_learn_grid_speedup():
    """learn_many over a 4-point grid: >= 2x vs four fresh sessions."""
    with Timer() as t_per_call:
        per_call = _per_call_learn()
    with Timer() as t_sess:
        batched, session = _session_learn()
    speedup = t_per_call.elapsed / t_sess.elapsed
    result = ExperimentResult(
        "T9",
        "Session reuse: (k, eps) learning grid, shared vs per-call draws",
        ["path", "grid points", "samples drawn", "draw events", "time (s)", "speedup"],
        notes=[
            f"n={N}, zipf(1.0), budget ell={LEARN_BUDGET.weight_sample_size} "
            f"r={LEARN_BUDGET.collision_sets} m={LEARN_BUDGET.collision_set_size}, "
            f"max_candidates={MAX_CANDIDATES}",
            "Claim: one draw + one compile answers the whole grid; >= 2x wall-clock.",
        ],
    )
    per_call_samples = sum(r.samples_used for r in per_call)
    result.rows.append(
        ["per-call", len(GRID), per_call_samples, len(GRID), t_per_call.elapsed, 1.0]
    )
    result.rows.append(
        [
            "session",
            len(batched),
            session.samples_drawn,
            session.draw_events["learn"],
            t_sess.elapsed,
            speedup,
        ]
    )
    emit(result)
    assert session.draw_events["learn"] == 1
    assert len(batched) == len(GRID)
    assert speedup >= 2.0, f"session path only {speedup:.2f}x faster"


def test_t9_test_grid_speedup():
    """test_many over a 4-point grid: >= 2x vs four fresh sessions."""
    with Timer() as t_per_call:
        _per_call_test()
    with Timer() as t_sess:
        verdicts, session = _session_test()
    speedup = t_per_call.elapsed / t_sess.elapsed
    print(
        f"\ntester grid: per-call {t_per_call.elapsed:.3f}s, "
        f"session {t_sess.elapsed:.3f}s ({speedup:.1f}x, "
        f"{session.samples_drawn} samples, "
        f"{session.draw_events['test']} draw event)"
    )
    assert session.draw_events["test"] == 1
    assert len(verdicts) == len(GRID)
    assert speedup >= 2.0, f"session path only {speedup:.2f}x faster"


def test_t9_sample_accounting():
    """The session grid consumes one budget; per-call consumes four."""
    counting = CountingSource(DIST)
    session = HistogramSession(
        counting, N, rng=1, learn_budget=LEARN_BUDGET, max_candidates=MAX_CANDIDATES
    )
    session.learn_many(GRID)
    assert counting.calls == 1 + LEARN_BUDGET.collision_sets
    assert session.samples_drawn == LEARN_BUDGET.total_samples
