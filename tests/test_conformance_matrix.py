"""Scenario-matrix conformance: every learn-route/engine/source/driver
combination answers a pinned workload identically.

One fixed operation script (learn + l2/l1 tester grid + min-k) runs at
pinned seeds through every combination of

* learn route            — ``lockstep`` (the one production driver, as
  every facade calls it) or ``full`` (the engine's private full-span
  reference), swapped in at the facades' driver seam,
* tester (flatness) engine — ``compiled`` (the production path) or
  ``full`` (the private per-query reference, ``_reference_test`` /
  ``_reference_min_k`` over each member's pooled sketch),
* sample source          — :class:`ArraySource` or a
  :class:`~repro.streaming.ReservoirSampler` (whose families are cut
  from one permutation), each plain or wrapped in a
  :class:`CountingSource`; each of the two is compared with its own
  reference cell, since their draws differ,
* driver                 — a :class:`HistogramSession` loop /
  one :class:`HistogramFleet`,

and every cell of the matrix must produce byte-identical outcomes:
learned histogram buffers, tester verdicts *with query logs*, and min-k
selections.  This is the one test that catches an engine drifting from
the others anywhere in the stack — a new engine or source adapter joins
the matrix, not a bespoke suite.
"""

from __future__ import annotations

import contextlib
import itertools
import os

import numpy as np
import pytest

import repro.api.fleet as api_fleet
from repro.api import (
    ArraySource,
    CountingSource,
    HistogramFleet,
    HistogramSession,
)
from repro.core.greedy import _reference_learn
from repro.core.params import GreedyParams, TesterParams
from repro.core.selection import _reference_min_k
from repro.core.tester import _reference_test
from repro.distributions import families
from repro.samples.estimators import MultiSketch
from repro.streaming.reservoir import ReservoirSampler

N = 96
FLEET_SIZE = 3
SEEDS = (0, 11)
TEST_PARAMS = TesterParams(num_sets=5, set_size=2_000)
LEARN_PARAMS = GreedyParams(
    weight_sample_size=2_000, collision_sets=3, collision_set_size=1_000, rounds=2
)
TEST_GRID = [(2, 0.3), (4, 0.25)]
# Holds 5 x 2,500 items, so the snapshot axis's grown tester family is
# still cut disjoint.
RESERVOIR_CAPACITY = 12_500

# Each learn route's driver; ``None`` keeps the production one.
LEARN_ROUTES = {
    "full": _reference_learn,
    "lockstep": None,
}
TESTER_ENGINES = ("compiled", "full")
SOURCE_KINDS = ("array", "counting", "reservoir", "counting-reservoir")
DRIVERS = ("session", "fleet")

MATRIX = list(itertools.product(LEARN_ROUTES, TESTER_ENGINES, SOURCE_KINDS, DRIVERS))


@contextlib.contextmanager
def learn_route(route: str):
    """Send every session/fleet learn through ``route``'s driver (a
    session learns through its one-member fleet)."""
    driver = LEARN_ROUTES[route]
    with pytest.MonkeyPatch.context() as patch:
        if driver is not None:
            patch.setattr(api_fleet, "lockstep_learn", driver)
        yield


def _family(kind: str) -> str:
    """The source a kind draws from, ``array`` or ``reservoir``."""
    return "reservoir" if kind.endswith("reservoir") else "array"


def _make_sources(kind: str):
    base = families.random_tiling_histogram(N, 3, rng=5, min_piece=8)
    arrays = [
        base.sample(15_000, np.random.default_rng(200 + f)) for f in range(FLEET_SIZE)
    ]
    if _family(kind) == "reservoir":
        sources = [ReservoirSampler(RESERVOIR_CAPACITY, rng=300 + f) for f in range(FLEET_SIZE)]
        for reservoir, values in zip(sources, arrays):
            reservoir.update_many(values)
    else:
        sources = [ArraySource(values, N) for values in arrays]
    if kind.startswith("counting"):
        sources = [CountingSource(source) for source in sources]
    return sources


def _freeze_learn(result):
    return (
        result.histogram.boundaries.tobytes(),
        result.histogram.values.tobytes(),
        tuple(result.rounds),
    )


def _freeze_memo(bundles) -> tuple:
    """Per-member flatness-memo accounting of every compiled budget.

    Part of the byte-identity contract on the compiled tester: a
    restored fleet, the response cache and the checkpoint mode must
    leave every member's memo — hits, misses, and distinct entries —
    exactly as the live, uncached path does.
    """
    return tuple(
        tuple(
            (key, compiled.memo_hits, compiled.memo_misses, compiled.memo_size)
            for key, compiled in sorted(bundle._tester_compiled_cache.items())
        )
        for bundle in bundles
    )


def run_scenario(
    route: str,
    tester_engine: str,
    source_kind: str,
    driver: str,
    seed: int,
):
    """One pinned workload; returns its outcome, comparable across every
    matrix axis.
    """
    sources = _make_sources(source_kind)
    seeds = [seed + f for f in range(FLEET_SIZE)]
    kwargs = dict(learn_budget=LEARN_PARAMS, test_budget=TEST_PARAMS)
    with learn_route(route):
        if driver == "fleet":
            fleet = HistogramFleet(sources, N, rngs=seeds, **kwargs)
            learned = fleet.learn(3, 0.3)
            bundles = [fleet.bundle(f) for f in range(FLEET_SIZE)]
        else:
            sessions = [
                HistogramSession(source, N, rng=member_seed, **kwargs)
                for source, member_seed in zip(sources, seeds)
            ]
            learned = [session.learn(3, 0.3) for session in sessions]
            bundles = [session._bundle for session in sessions]
        if tester_engine == "full":
            multis = [
                MultiSketch.from_sample_sets(bundle.tester_sets(TEST_PARAMS), N)
                for bundle in bundles
            ]
            tested_l2 = [
                [_reference_test(m, N, k, e, "l2", TEST_PARAMS) for k, e in TEST_GRID]
                for m in multis
            ]
            tested_l1 = [_reference_test(m, N, 3, 0.3, "l1", TEST_PARAMS) for m in multis]
            selected = [
                _reference_min_k(m, N, 0.3, max_k=6, norm="l2", params=TEST_PARAMS)
                for m in multis
            ]
        elif driver == "fleet":
            tested_l2 = fleet.test_many(TEST_GRID, norm="l2")
            tested_l1 = fleet.test_l1(3, 0.3)
            selected = fleet.min_k(0.3, max_k=6, norm="l2")
        else:
            tested_l2 = [s.test_many(TEST_GRID, norm="l2") for s in sessions]
            tested_l1 = [session.test_l1(3, 0.3) for session in sessions]
            selected = [s.min_k(0.3, max_k=6, norm="l2") for s in sessions]
    return (
        tuple(_freeze_learn(result) for result in learned),
        tuple(tuple(member) for member in tested_l2),
        tuple(tested_l1),
        tuple(selected),
    )


@pytest.fixture(scope="module")
def reference_outcomes():
    """The matrix's reference cells (the full-span learn route), one per
    pinned seed and source family."""
    return {
        (seed, family): run_scenario("full", "compiled", family, "session", seed)
        for seed in SEEDS
        for family in ("array", "reservoir")
    }


@pytest.mark.parametrize(
    "route,tester_engine,source_kind,driver",
    MATRIX,
    ids=["-".join(cell) for cell in MATRIX],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_cell_matches_reference(
    route, tester_engine, source_kind, driver, seed, reference_outcomes
):
    """Pairwise identity via a shared reference cell (equality is
    transitive, so all C(|matrix|, 2) pairs agree iff each cell agrees
    with the reference)."""
    outcome = run_scenario(route, tester_engine, source_kind, driver, seed)
    assert outcome == reference_outcomes[seed, _family(source_kind)]


def test_counting_sources_observe_identical_draws():
    """The source axis is real: the counting wrapper sees every draw the
    plain source serves, on both drivers."""
    sources = _make_sources("counting")
    fleet = HistogramFleet(
        sources, N, rngs=list(range(FLEET_SIZE)), test_budget=TEST_PARAMS
    )
    fleet.test_l2(3, 0.3)
    assert all(source.samples_drawn == TEST_PARAMS.total_samples for source in sources)


# ------------------------------------------------------------------ #
# snapshot axis: restore is byte-identical to staying alive
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("case", ["serial", "reservoir", "sparse"])
def test_snapshot_cell_matches_live_fleet(tmp_path, case):
    """A fleet restored mid-workload finishes it byte-identically.

    Phase A (learn + one tester call) runs on a live fleet, which is
    then snapshotted.  Phase B — the rest of the pinned workload, plus a
    *larger*-budget tester call that forces the restored read-only pools
    to grow and spends restored rng draws — runs on both the live fleet
    and a freshly built fleet restored from the file.  Outcomes and
    per-member memo accounting must match exactly.  Over array sources
    the pools grow by suffix; over reservoirs the family is redrawn.
    The ``sparse`` case runs reservoirs at budgets small enough
    (``4 m <= N + 1``) that every tester compiles into sorted keys.
    """
    seeds = [SEEDS[0] + f for f in range(FLEET_SIZE)]
    budget, grown = TEST_PARAMS, TesterParams(num_sets=5, set_size=2_500)
    if case == "sparse":
        budget, grown = TesterParams(num_sets=5, set_size=16), TesterParams(5, 24)

    def build():
        return HistogramFleet(
            _make_sources("array" if case == "serial" else "reservoir"),
            N,
            rngs=list(seeds),
            learn_budget=LEARN_PARAMS,
            test_budget=budget,
        )

    def phase_b(fleet):
        outcome = (
            tuple(_freeze_learn(result) for result in fleet.learn(3, 0.3)),
            tuple(tuple(member) for member in fleet.test_many(TEST_GRID, norm="l2")),
            tuple(fleet.test_l1(3, 0.3)),
            tuple(fleet.min_k(0.3, max_k=6, norm="l2")),
            tuple(fleet.test_l2(2, 0.3, params=grown)),
        )
        return outcome, _freeze_memo(fleet.bundle(f) for f in range(fleet.size))

    live = build()
    live.learn(3, 0.3)
    live.test_l2(2, 0.3)
    path = tmp_path / "fleet.snap"
    live.snapshot(path)

    restored = build()
    restored.restore(path)
    assert phase_b(live) == phase_b(restored)
    forms = {
        compiled.form
        for f in range(restored.size)
        for compiled in restored.bundle(f)._tester_compiled_cache.values()
    }
    assert forms == {"sparse" if case == "sparse" else "dense"}


# ------------------------------------------------------------------ #
# serving axes: the response cache and the checkpoint mode are
# byte-free — responses, query logs, and memo accounting all match
# ------------------------------------------------------------------ #


def _serve_workload():
    """A requery-heavy pinned workload (repeats are what the cache eats)."""
    from repro.serving import WorkloadConfig

    return WorkloadConfig(
        streams=4,
        requests=60,
        seed=5,
        n=N,
        k=3,
        epsilon=0.3,
        requery_bias=0.5,
        ingest_batch=24,
        burst_every=24,
        burst_len=8,
    )


def _build_service(names, cache_capacity, **kwargs):
    from repro.serving import HistogramService, ServiceConfig

    return HistogramService(
        names,
        N,
        3,
        0.3,
        config=ServiceConfig(
            max_batch=8,
            max_linger_us=200.0,
            max_queue=4096,
            cache_capacity=cache_capacity,
        ),
        references={"baseline": np.full(N, 1.0 / N)},
        reservoir_capacity=512,
        params=LEARN_PARAMS,
        tester_params=TEST_PARAMS,
        rng=9,
        **kwargs,
    )


def _serve_memo(service) -> tuple:
    """Per-member memo accounting *excluding hit counts*.

    A response-cache hit legitimately skips the memo query a cold
    execution would have made, so hits differ across the cache axis; the
    memo *table* and its miss counts may not.
    """
    maintainer = service.maintainer
    return tuple(
        tuple(
            (key, compiled.memo_misses, compiled.memo_size)
            for key, compiled in sorted(
                maintainer.fleet.bundle(f)._tester_compiled_cache.items()
            )
        )
        for f in range(maintainer.fleet_size)
    )


def test_response_cache_cell_matches_reference():
    """Cache on == cache off, byte for byte, memo misses included."""
    import asyncio

    from repro.serving import WorkloadGenerator, canonical, replay

    config = _serve_workload()
    generator = WorkloadGenerator(config)
    trace = generator.trace()

    def run(cache_capacity):
        async def scenario():
            service = _build_service(generator.stream_names, cache_capacity)
            async with service:
                report = await replay(service, trace, clients=8, collect=True)
            return (
                tuple(canonical(r) for r in report.responses),
                _serve_memo(service),
                dict(service.stats),
            )

        return asyncio.run(scenario())

    reference_trace, reference_memo, _ = run(0)
    cached_trace, cached_memo, cached_stats = run(256)
    assert cached_stats["cache_hits"] > 0  # the axis is real
    assert cached_trace == reference_trace
    assert cached_memo == reference_memo


@pytest.mark.parametrize("mode", ["full", "delta"])
def test_checkpoint_mode_cell_matches_live_service(tmp_path, mode):
    """A service restored from either checkpoint mode finishes the
    pinned workload byte-identically to one that never restarted."""
    import asyncio

    from repro.serving import canonical
    from repro.serving import WorkloadGenerator

    config = _serve_workload()
    generator = WorkloadGenerator(config)
    requests = [request for _, request in generator.trace()]
    split = (len(requests) * 2) // 3
    head, tail = requests[:split], requests[split:]
    snapshot_dir = tmp_path / mode

    async def scenario():
        live = _build_service(
            generator.stream_names,
            256,
            snapshot_dir=snapshot_dir,
            checkpoint_mode=mode,
            checkpoint_every=2,
        )
        async with live:
            for request in head:
                await live.submit(request)
        # The mode really ran: beyond the chain-base write, every later
        # checkpoint in delta mode takes the differential path.
        assert live.stats["checkpoints"] >= 2
        reference = _build_service(generator.stream_names, 256)
        async with reference:
            ref = [canonical(await reference.submit(r)) for r in requests]
        restored = _build_service(
            generator.stream_names,
            256,
            snapshot_dir=snapshot_dir,
            checkpoint_mode=mode,
        )
        assert restored.warm_started, restored.restore_error
        async with restored:
            warm = [canonical(await restored.submit(r)) for r in tail]
        assert warm == ref[split:]
        assert _serve_memo(restored) == _serve_memo(reference)
        assert os.path.exists(snapshot_dir / "service.snap")

    asyncio.run(scenario())
