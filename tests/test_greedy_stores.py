"""The engine's two ``rel`` stores agree bit for bit.

An uncapped candidate set is a triangle, compiled to a dense self-cost
matrix and scored by the dense store; a ``max_candidates`` cap (or a
snapshot written before the triangle form) gives a pair list, compiled
to a flat self-cost vector and scored by the pair-list store.  The
private seam :func:`repro.core.greedy._pair_list_sketches` re-expresses
one uncapped triangle as a pair list, so the same candidates run through
both stores here: every round report (candidate index, cost and weight
bits, neighbours, rescored count) and every learn result must match.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.greedy import (
    GreedySamples,
    LockstepRun,
    _collision_z,
    _GreedyEngine,
    _pair_list_sketches,
    compile_greedy_sketches,
    lockstep_learn,
)
from repro.core.params import GreedyParams


def _samples(n, sets, seed, equal):
    """A draw over ``[0, n)``: skewed, or every sample the same value."""
    rng = np.random.default_rng(seed)
    if equal:
        value = int(rng.integers(0, n))
        return GreedySamples(
            np.full(60, value), tuple(np.full(40, value) for _ in range(sets))
        )
    skew = rng.dirichlet(np.full(n, 0.3))
    return GreedySamples(
        rng.choice(n, size=60, p=skew),
        tuple(rng.choice(n, size=40, p=skew) for _ in range(sets)),
    )


def _bits(report):
    """Everything a round report says, floats as exact bit patterns."""
    return (
        report.candidate_index,
        report.cost.hex(),
        report.weight_estimate.hex(),
        report.chosen,
        report.value.hex(),
        tuple((interval, value.hex()) for interval, value in report.neighbours),
        report.rescored,
    )


def _freeze(result):
    return (
        result.histogram.boundaries.tobytes(),
        result.histogram.values.tobytes(),
        result.filled_histogram.values.tobytes(),
        tuple(
            (r.chosen, r.weight_estimate.hex(), r.estimated_cost.hex())
            for r in result.rounds
        ),
        tuple(result.priority_histogram.pieces()),
        result.num_candidates,
    )


@settings(max_examples=40, deadline=None)
@example(method="exhaustive", sets=2, n=1, equal=True, rounds=12, seed=0)
@example(method="fast", sets=4, n=3, equal=False, rounds=12, seed=5)
@given(
    method=st.sampled_from(["fast", "exhaustive"]),
    sets=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=300),
    equal=st.booleans(),
    rounds=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dense_and_pair_list_stores_agree(method, sets, n, equal, rounds, seed):
    """Odd and even ``r`` (network and partition medians), domains down
    to one point, all-equal samples, and round budgets beyond the useful
    candidates all give byte-identical rounds on both stores."""
    compiled = compile_greedy_sketches(_samples(n, sets, seed, equal), n, method=method)
    pairs = _pair_list_sketches(compiled)
    assert compiled.candidates.is_triangle and not pairs.candidates.is_triangle
    count = compiled.candidates.starts.size
    # The matrix's upper triangle, read row-major, is the flat vector the
    # pair-list pass computes; everything below the diagonal is +inf.
    upper = np.triu_indices(count)
    assert np.array_equal(compiled.self_costs[upper], pairs.self_costs)
    assert np.all(compiled.self_costs[np.tril_indices(count, -1)] == np.inf)

    dense, flat = _GreedyEngine(compiled), _GreedyEngine(pairs)
    for _ in range(rounds):
        assert _bits(dense.run_round()) == _bits(flat.run_round())
    params = GreedyParams(60, sets, 40, rounds)
    results = [
        lockstep_learn([LockstepRun(c, params, method, n)])[0]
        for c in (compiled, pairs)
    ]
    assert _freeze(results[0]) == _freeze(results[1])


@settings(max_examples=60, deadline=None)
@given(
    sets=st.integers(min_value=1, max_value=9),
    grid=st.integers(min_value=2, max_value=40),
    spread=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_collision_median_is_np_median(sets, grid, spread, seed):
    """The median over the ``r`` sets — a min/max network for 1, 3 and
    5 sets, a partition otherwise — equals ``np.median`` of the
    normalised per-set estimates bit for bit, ties included, for flat
    index pairs and for the broadcast axes of a triangle block.  The
    prefixes go in set-major, ``(r, G)``, the layout the compile and the
    engine hand it."""
    rng = np.random.default_rng(seed)
    # Small integer steps make many equal counts (ties across sets).
    cols = np.cumsum(rng.integers(0, spread, size=(grid, sets)), axis=0).astype(float)
    rows = np.ascontiguousarray(cols.T)
    pairs_per_set = float(rng.integers(1, 50))
    lo = rng.integers(0, grid - 1, size=30)
    hi = lo + rng.integers(1, grid - lo)
    expected = np.median((cols[hi] - cols[lo]) / pairs_per_set, axis=1)
    assert _collision_z(rows, lo, hi, pairs_per_set).tobytes() == expected.tobytes()
    starts, stops = lo[:6, None], hi[None, :]
    block = np.median((cols[stops] - cols[starts]) / pairs_per_set, axis=-1)
    assert _collision_z(rows, starts, stops, pairs_per_set).tobytes() == block.tobytes()
