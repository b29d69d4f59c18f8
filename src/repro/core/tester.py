"""Tiling k-histogram testers (Algorithm 2; Theorems 3 and 4).

Algorithm 2 tries to cover ``[0, n)`` with at most ``k`` flat intervals.
Starting from the left edge it binary-searches for the farthest endpoint
whose interval still passes the flatness test, commits that interval, and
repeats; it accepts iff ``k`` intervals suffice.

Accept-condition note (README.md, "Design notes"): the paper's pseudocode
accepts when ``previous = n`` (1-based), but the binary search leaves
``low = n + 1`` when the final interval is flat; the reachable condition —
implemented here — is ``previous >= n`` in 0-based half-open coordinates.

Like the learner, the module splits "draw samples" from "run the
algorithm": :func:`test_l2_on_sketch` / :func:`test_l1_on_sketch` run
Algorithm 2 on a :class:`~repro.core.flatness.CompiledTesterSketches`
— precompiled prefix gathers plus a verdict memo (README.md, "Compiled
tester engine") — and :class:`repro.api.HistogramSession` owns the draws
and the compile (:func:`~repro.core.flatness.compile_tester_sketches`).
The per-query oracle over a raw
:class:`~repro.samples.estimators.MultiSketch` survives only as the
private :func:`_reference_test`, which the test suite holds the
compiled path to, byte for byte, on verdicts *and query logs*.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.flatness import (
    REASON_REJECTED,
    CompiledTesterSketches,
    FlatnessOracle,
    FlatnessResult,
    FleetFlatnessOracle,
    FleetTesterSketches,
    flatness_oracle,
)
from repro.core.params import TesterParams, validate_k
from repro.core.results import FlatnessQuery, TestResult
from repro.errors import InvalidParameterError
from repro.histograms.intervals import Interval
from repro.samples.estimators import MultiSketch


def flat_partition(
    n: int,
    max_pieces: int,
    oracle: FlatnessOracle,
) -> tuple[list[Interval], list[FlatnessQuery]]:
    """Algorithm 2's partition search, generic over the flatness oracle.

    Returns the flat intervals found (in order) and the full query log.
    The caller decides acceptance from whether the intervals cover the
    domain.  Every probe is logged, including ones a memoising oracle
    answers from cache — the log is engine-independent.
    """
    if max_pieces < 1:
        raise InvalidParameterError(f"max_pieces must be >= 1, got {max_pieces}")
    queries: list[FlatnessQuery] = []
    partition: list[Interval] = []

    def flat(start: int, stop: int) -> bool:
        result = oracle(start, stop)
        queries.append(
            FlatnessQuery(
                interval=Interval(start, stop),
                accepted=result.accepted,
                reason=result.reason,
                statistic=result.statistic,
                threshold=result.threshold,
            )
        )
        return result.accepted

    previous = 0
    for _ in range(max_pieces):
        low, high = previous, n - 1
        while high >= low:
            mid = low + (high - low) // 2
            if flat(previous, mid + 1):
                low = mid + 1
            else:
                high = mid - 1
        if low == previous:
            # A single element is always flat in exact arithmetic; this
            # branch is a defensive guard against a stuck search.
            break
        partition.append(Interval(previous, low))
        previous = low
        if previous >= n:
            break
    return partition, queries


class _FleetPartitionState:
    """One member's Algorithm 2 binary-search state, lockstep-steppable.

    A verbatim state-machine translation of :func:`flat_partition`'s
    nested loops: ``(previous, low, high, pieces)`` hold the sequential
    code's loop variables, and :meth:`advance` consumes one probe's
    verdict — logging it and updating the search — returning whether the
    member still has probes to make.  Driving every member through the
    same transitions the sequential code takes is what keeps a fleet
    run's per-member partitions *and query logs* byte-identical to a
    loop of single-member runs.
    """

    __slots__ = ("n", "max_pieces", "previous", "pieces", "low", "high",
                 "partition", "queries")

    def __init__(self, n: int, max_pieces: int) -> None:
        self.n = n
        self.max_pieces = max_pieces
        self.previous = 0
        self.pieces = 0
        self.low = 0
        self.high = n - 1
        self.partition: list[Interval] = []
        self.queries: list[FlatnessQuery] = []

    def probe_stop(self) -> int:
        """End of the interval the next flatness query tests (``mid + 1``;
        the start is always the current ``previous``)."""
        return self.low + (self.high - self.low) // 2 + 1

    def advance(self, stop: int, result: FlatnessResult) -> bool:
        """Consume the pending probe's verdict; ``True`` while active."""
        self.queries.append(
            FlatnessQuery(
                interval=Interval(self.previous, stop),
                accepted=result.accepted,
                reason=result.reason,
                statistic=result.statistic,
                threshold=result.threshold,
            )
        )
        if result.accepted:
            self.low = stop  # == mid + 1
        else:
            self.high = stop - 2  # == mid - 1
        if self.high >= self.low:
            return True
        # Inner binary search finished for this piece.
        if self.low == self.previous:
            # Defensive guard against a stuck search (see flat_partition).
            return False
        self.partition.append(Interval(self.previous, self.low))
        self.previous = self.low
        self.pieces += 1
        if self.previous >= self.n or self.pieces >= self.max_pieces:
            return False
        self.low, self.high = self.previous, self.n - 1
        return True


def fleet_flat_partition(
    n: int,
    max_pieces: int,
    oracle: FleetFlatnessOracle,
    members: "list[int]",
) -> list[tuple[list[Interval], list[FlatnessQuery]]]:
    """Algorithm 2's partition search for many members, lockstep-batched.

    Every member runs exactly the probe sequence :func:`flat_partition`
    would run for it — memo-hit verdicts are consumed inline (members
    fast-forward independently, so a member replaying a cached search
    never stalls the batch), and each round gathers at most one fresh
    probe per member into a single vectorised
    :meth:`~repro.core.flatness.FleetFlatnessOracle.resolve` call.
    Returns each member's ``(partition, query log)`` in input order,
    byte-identical — partitions, logs, and per-member memo accounting —
    to looping the sequential search.

    The fast-forward loop reads each member's verdict memo directly
    (hit ticks are accumulated locally and flushed once at the end):
    at fleet scale the per-probe constant of this loop is the serving
    path's floor, so it stays free of per-probe method dispatch.
    """
    if max_pieces < 1:
        raise InvalidParameterError(f"max_pieces must be >= 1, got {max_pieces}")
    states = [_FleetPartitionState(n, max_pieces) for _ in members]
    memos = [oracle.member_memo(member) for member in members]
    hits = [0] * len(members)
    metric, epsilon, scale = oracle.suffix
    active = list(range(len(members)))
    while active:
        parked: list[int] = []
        stops: list[int] = []
        for i in active:
            # Fast-forward through memo hits with the state in locals —
            # the same transitions as _FleetPartitionState.advance, kept
            # free of per-probe attribute and method dispatch (this loop
            # is the serving path's floor; see the docstring).
            state = states[i]
            memo_get = memos[i].get
            queries_append = state.queries.append
            previous, low, high = state.previous, state.low, state.high
            pieces, partition = state.pieces, state.partition
            local_hits = 0
            while True:
                stop = low + (high - low) // 2 + 1
                cached = memo_get((previous, stop, metric, epsilon, scale))
                if cached is None:
                    state.previous, state.low, state.high = previous, low, high
                    state.pieces = pieces
                    parked.append(i)
                    stops.append(stop)
                    break
                local_hits += 1
                queries_append(
                    FlatnessQuery(
                        interval=Interval(previous, stop),
                        accepted=cached.accepted,
                        reason=cached.reason,
                        statistic=cached.statistic,
                        threshold=cached.threshold,
                    )
                )
                if cached.accepted:
                    low = stop
                else:
                    high = stop - 2
                if high >= low:
                    continue
                if low == previous:
                    state.previous, state.low, state.high = previous, low, high
                    state.pieces = pieces
                    break
                partition.append(Interval(previous, low))
                previous = low
                pieces += 1
                if previous >= n or pieces >= max_pieces:
                    state.previous, state.low, state.high = previous, low, high
                    state.pieces = pieces
                    break
                low, high = previous, n - 1
            hits[i] += local_hits
        if not parked:
            break
        results = oracle.resolve(
            np.asarray([members[i] for i in parked], dtype=np.int64),
            np.asarray([states[i].previous for i in parked], dtype=np.int64),
            np.asarray(stops, dtype=np.int64),
        )
        active = [
            i
            for i, stop, result in zip(parked, stops, results)
            if states[i].advance(stop, result)
        ]
    oracle.flush_hits(members, hits)
    return [(state.partition, state.queries) for state in states]


def fleet_test_on_sketches(
    fleet: FleetTesterSketches,
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    members: "list[int] | None" = None,
) -> list[TestResult]:
    """One tester invocation across a compiled fleet (no source access).

    The fleet-axis counterpart of :func:`test_l2_on_sketch` /
    :func:`test_l1_on_sketch`: one validated oracle, one lockstep
    partition search, one :class:`TestResult` per member (in member
    order), each byte-identical to the single-sketch call on that
    member's compiled sketches.
    """
    k = validate_k(k, n)
    if norm not in ("l1", "l2"):
        raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if members is None:
        members = list(range(fleet.fleet_size))
    scale = 1.0 if norm == "l2" else l1_effective_scale(n, k, epsilon, params)
    oracle = fleet.oracle(norm, epsilon, scale=scale)
    outcomes = fleet_flat_partition(n, k, oracle, members)
    return [
        _result_from_partition(n, k, epsilon, norm, params, partition, queries)
        for partition, queries in outcomes
    ]


def _result_from_partition(
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    partition: "list[Interval]",
    queries: "list[FlatnessQuery]",
) -> TestResult:
    """Algorithm 2's acceptance rule, shared by every driver.

    Acceptance is coverage: the search committed flat intervals up to
    ``k`` pieces, so the domain is covered iff the last one reaches
    ``n``.  Single-sketch and fleet runs both read their verdicts
    through this one function (the byte-identity contract's anchor).
    """
    covered = partition[-1].stop if partition else 0
    return TestResult(
        accepted=covered >= n,
        norm=norm,
        k=k,
        epsilon=epsilon,
        partition=partition,
        queries=queries,
        params=params,
        samples_used=params.total_samples,
    )


def _run_search(
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    oracle_at: Callable[[float], FlatnessOracle],
) -> TestResult:
    """Validate ``k``, search with ``oracle_at(scale)``, read the verdict."""
    k = validate_k(k, n)
    scale = 1.0 if norm == "l2" else l1_effective_scale(n, k, epsilon, params)
    partition, queries = flat_partition(n, k, oracle_at(scale))
    return _result_from_partition(n, k, epsilon, norm, params, partition, queries)


def test_l2_on_sketch(
    compiled: CompiledTesterSketches,
    n: int,
    k: int,
    epsilon: float,
    params: TesterParams,
) -> TestResult:
    """Theorem 3's tester on compiled sketches (no source access).

    Pure in the sketch contents: running it any number of times — or
    interleaved with other ``(k, epsilon)`` queries over the same
    sketches — returns identical results, which is what lets sessions
    share one draw.  Verdicts land in ``compiled``'s memo, so later
    calls on the same object reuse them.
    """
    return _run_search(
        n,
        k,
        epsilon,
        "l2",
        params,
        lambda scale: compiled.oracle("l2", epsilon, scale=scale),
    )


def l1_effective_scale(n: int, k: int, epsilon: float, params: TesterParams) -> float:
    """Rescaling of ``testFlatness-l1``'s light-interval threshold.

    The threshold is an absolute hit count calibrated to the paper's
    ``m = 2^13 sqrt(kn) / eps^5``; running with ``params.set_size``
    samples per set requires scaling it proportionally so the same weight
    level is tested.
    """
    paper_set_size = (2**13) * np.sqrt(k * n) / epsilon**5
    return min(1.0, params.set_size / paper_set_size)


def test_l1_on_sketch(
    compiled: CompiledTesterSketches,
    n: int,
    k: int,
    epsilon: float,
    params: TesterParams,
) -> TestResult:
    """Theorem 4's tester on compiled sketches (see :func:`test_l2_on_sketch`)."""
    return _run_search(
        n,
        k,
        epsilon,
        "l1",
        params,
        lambda scale: compiled.oracle("l1", epsilon, scale=scale),
    )


def _reference_test(
    multi: MultiSketch,
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
) -> TestResult:
    """Algorithm 2 on the per-query oracle: the tests' private reference.

    Every probe re-runs the per-set searches over the raw sketch
    (:func:`~repro.core.flatness.flatness_oracle`), with no compiled
    layout and no memo.  The suite holds :func:`test_l2_on_sketch`,
    :func:`test_l1_on_sketch` and the fleet's lockstep search to it,
    byte for byte, on verdicts and query logs.
    """
    return _run_search(
        n,
        k,
        epsilon,
        norm,
        params,
        lambda scale: flatness_oracle(multi, norm, epsilon, scale=scale),
    )


def count_rejections(result: TestResult) -> int:
    """Number of rejected flatness queries in a test run (diagnostics)."""
    return sum(1 for q in result.queries if q.reason == REASON_REJECTED)
