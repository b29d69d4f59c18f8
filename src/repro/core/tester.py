"""Tiling k-histogram testers (Algorithm 2; Theorems 3 and 4).

Algorithm 2 tries to cover ``[0, n)`` with at most ``k`` flat intervals.
Starting from the left edge it binary-searches for the farthest endpoint
whose interval still passes the flatness test, commits that interval, and
repeats; it accepts iff ``k`` intervals suffice.

Accept-condition note (README.md, "Design notes"): the paper's pseudocode
accepts when ``previous = n`` (1-based), but the binary search leaves
``low = n + 1`` when the final interval is flat; the reachable condition —
implemented here — is ``previous >= n`` in 0-based half-open coordinates.

The search is written once, as the generator :func:`_partition_search`:
it yields each probe, receives the verdict, and returns the partition
and query log.  Two drivers step it: :func:`flat_partition` asks one
flatness oracle per probe, and :func:`fleet_flat_partition` steps many
members in lockstep, answering memo hits at once and each round's misses
in one batched call (a lone member has nothing to batch, so it takes
:func:`flat_partition` on its own compiled sketches).

Like the learner, the module splits "draw samples" from "run the
algorithm": :func:`fleet_test_on_sketches`, the one tester entry point,
runs Algorithm 2 on a :class:`~repro.core.flatness.FleetTesterSketches`
— each member's compiled layout (dense prefix rows or sparse sorted
keys) plus its verdict memo (README.md, "Compiled tester engine") — and
:class:`repro.api.HistogramFleet` (a session is a one-member fleet) owns
the draws and the compile
(:meth:`~repro.core.flatness.FleetTesterSketches.compile_member`).  The
per-query oracle over a raw :class:`~repro.samples.estimators.MultiSketch`
survives only as the private :func:`_reference_test`, which the test
suite holds the compiled path to, byte for byte, on verdicts *and query
logs*.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.core.flatness import (
    REASON_REJECTED,
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

Probe = tuple[int, int]
Partition = tuple[list[Interval], list[FlatnessQuery]]


def _partition_search(
    n: int, max_pieces: int
) -> Generator[Probe, FlatnessResult, Partition]:
    """Algorithm 2's partition search, written once.

    Yields each probe ``(start, stop)``, receives its verdict through
    ``send``, and returns the flat intervals found (in order) and the
    full query log.  Every probe is logged, including ones a memo
    answers — the log is driver-independent.  :func:`flat_partition`
    and :func:`fleet_flat_partition` step it; the caller decides
    acceptance from whether the intervals cover the domain.
    """
    if max_pieces < 1:
        raise InvalidParameterError(f"max_pieces must be >= 1, got {max_pieces}")
    queries: list[FlatnessQuery] = []
    partition: list[Interval] = []
    previous = 0
    for _ in range(max_pieces):
        low, high = previous, n - 1
        while high >= low:
            mid = low + (high - low) // 2
            result = yield previous, mid + 1
            queries.append(
                FlatnessQuery(
                    interval=Interval(previous, mid + 1),
                    accepted=result.accepted,
                    reason=result.reason,
                    statistic=result.statistic,
                    threshold=result.threshold,
                )
            )
            if result.accepted:
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


def flat_partition(n: int, max_pieces: int, oracle: FlatnessOracle) -> Partition:
    """Algorithm 2's search driven by one flatness oracle.

    Returns the flat intervals found (in order) and the full query log
    (see :func:`_partition_search`).
    """
    search = _partition_search(n, max_pieces)
    try:
        probe = next(search)
        while True:
            probe = search.send(oracle(*probe))
    except StopIteration as done:
        return done.value


def fleet_flat_partition(
    n: int,
    max_pieces: int,
    oracle: FleetFlatnessOracle,
    members: "list[int]",
) -> list[Partition]:
    """Algorithm 2's search for many members, lockstep-batched.

    Every member steps its own :func:`_partition_search`, so it runs
    exactly the probes :func:`flat_partition` would run for it.  A lone
    member has nothing to batch: it steps :func:`flat_partition` on its
    own compiled sketches (:meth:`FleetFlatnessOracle.member_oracle`),
    which reads and extends its memo with the same accounting.  Memo-hit
    verdicts are fed back at once (members fast-forward independently, so
    a member replaying a cached search never stalls the batch), and each
    round gathers at most one fresh probe per member into a single
    :meth:`~repro.core.flatness.FleetFlatnessOracle.resolve` call.  Hit
    ticks are counted locally and credited once through
    :meth:`~repro.core.flatness.FleetFlatnessOracle.flush_hits`.
    Returns each member's ``(partition, query log)`` in input order,
    byte-identical — partitions, logs, and per-member memo accounting —
    to looping the single-oracle search.
    """
    if len(members) == 1:
        return [flat_partition(n, max_pieces, oracle.member_oracle(members[0]))]
    searches = [_partition_search(n, max_pieces) for _ in members]
    memos = [oracle.member_memo(member) for member in members]
    suffix = oracle.suffix
    hits = [0] * len(members)
    outcomes: list = [None] * len(members)

    def step(i: int, verdict: "FlatnessResult | None") -> "Probe | None":
        """Feed member ``i`` a verdict, then its memo hits; its next miss."""
        search, memo = searches[i], memos[i]
        try:
            probe = search.send(verdict)
            cached = memo.get(probe + suffix)
            while cached is not None:
                hits[i] += 1
                probe = search.send(cached)
                cached = memo.get(probe + suffix)
        except StopIteration as done:
            outcomes[i] = done.value
            return None
        return probe

    pending = [(i, step(i, None)) for i in range(len(members))]
    pending = [(i, probe) for i, probe in pending if probe is not None]
    while pending:
        results = oracle.resolve(
            np.asarray([members[i] for i, _ in pending], dtype=np.int64),
            np.asarray([probe[0] for _, probe in pending], dtype=np.int64),
            np.asarray([probe[1] for _, probe in pending], dtype=np.int64),
        )
        stepped = [(i, step(i, result)) for (i, _), result in zip(pending, results)]
        pending = [(i, probe) for i, probe in stepped if probe is not None]
    oracle.flush_hits(members, hits)
    return outcomes


def fleet_test_on_sketches(
    fleet: FleetTesterSketches,
    n: int,
    k: int,
    epsilon: float,
    norm: str,
    params: TesterParams,
    members: "list[int] | None" = None,
) -> list[TestResult]:
    """Theorem 3 (``norm="l2"``) or 4 (``"l1"``) on compiled sketches.

    The one tester entry point (no source access): one validated
    oracle, one partition search over the listed members (default: all)
    through :func:`fleet_flat_partition`, one :class:`TestResult` per
    member in the listed order.  Pure in the sketch contents: running it
    any number of times — or interleaved with other ``(k, epsilon)``
    queries over the same sketches — returns identical results, which is
    what lets sessions share one draw.  Verdicts land in each member's
    memo, so later calls reuse them.
    """
    k, scale = _search_scale(n, k, epsilon, norm, params)
    if members is None:
        members = list(range(fleet.fleet_size))
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
    ``n``.  Compiled and reference runs both read their verdicts
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


def _search_scale(
    n: int, k: int, epsilon: float, norm: str, params: TesterParams, *, name: str = "k"
) -> tuple[int, float]:
    """Validate a search's piece cap and norm; the cap and its l1 scale."""
    k = validate_k(k, n, name=name)
    if norm not in ("l1", "l2"):
        raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
    scale = 1.0 if norm == "l2" else l1_effective_scale(n, k, epsilon, params)
    return k, scale


def l1_effective_scale(n: int, k: int, epsilon: float, params: TesterParams) -> float:
    """Rescaling of ``testFlatness-l1``'s light-interval threshold.

    The threshold is an absolute hit count calibrated to the paper's
    ``m = 2^13 sqrt(kn) / eps^5``; running with ``params.set_size``
    samples per set requires scaling it proportionally so the same weight
    level is tested.
    """
    paper_set_size = (2**13) * np.sqrt(k * n) / epsilon**5
    return min(1.0, params.set_size / paper_set_size)


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
    layout and no memo.  The suite holds :func:`fleet_test_on_sketches`
    — a lone member's search and the lockstep one — to it, byte for
    byte, on verdicts and query logs.
    """
    k, scale = _search_scale(n, k, epsilon, norm, params)
    partition, queries = flat_partition(
        n, k, flatness_oracle(multi, norm, epsilon, scale=scale)
    )
    return _result_from_partition(n, k, epsilon, norm, params, partition, queries)


def count_rejections(result: TestResult) -> int:
    """Number of rejected flatness queries in a test run (diagnostics)."""
    return sum(1 for q in result.queries if q.reason == REASON_REJECTED)
