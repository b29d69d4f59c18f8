"""Model selection: estimate the smallest credible ``k`` by testing.

The paper's testers decide membership for a *given* ``k``; iterating them
over increasing ``k`` turns them into a sub-linear model-selection
procedure (the smallest accepted ``k`` is a credible bucket count).  To
avoid paying the sample complexity once per candidate ``k``, the search
reuses one set of sample sets across all candidates — Algorithm 2 already
takes a union bound over all ``n^2`` intervals, so reuse is sound.

This module is an extension beyond the paper (README.md, "Design notes"):
the paper's machinery composes into it directly.
:func:`select_min_k_on_sketch` is the pure half operating on an
already-built sketch, and :meth:`repro.api.HistogramSession.min_k` the
draw-once, sketch-reusing front door; :func:`_reference_min_k` runs the
same sweep on the per-query oracle as the tests' private reference.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.flatness import (
    CompiledTesterSketches,
    FlatnessOracle,
    FleetTesterSketches,
    flatness_oracle,
)
from repro.core.params import TesterParams
from repro.core.tester import (
    flat_partition,
    fleet_flat_partition,
    l1_effective_scale,
    resolve_flatness_oracle,
)
from repro.errors import InvalidParameterError
from repro.histograms.intervals import Interval
from repro.samples.estimators import MultiSketch


@dataclass(frozen=True)
class SelectionResult:
    """Output of a min-k search (:meth:`repro.api.HistogramSession.min_k`).

    Attributes
    ----------
    k:
        The smallest candidate ``k`` whose partition search covered the
        domain, or ``None`` when none did.
    partition:
        The flat partition found at that ``k`` (its length can be below
        ``k``).
    tried:
        Every candidate ``k`` examined, with its verdict.
    samples_used:
        Total samples drawn (shared across all candidates).
    """

    k: "int | None"
    partition: list[Interval]
    tried: list[tuple[int, bool]]
    samples_used: int


def select_min_k_on_sketch(
    multi: MultiSketch | None,
    n: int,
    epsilon: float,
    *,
    max_k: int,
    norm: str = "l1",
    params: TesterParams,
    compiled: CompiledTesterSketches | None = None,
) -> SelectionResult:
    """Smallest ``k`` for which the tiling k-histogram tester accepts.

    The min-k search on an already-built sketch (no source access),
    pure in ``multi``; :meth:`repro.api.HistogramSession.min_k`
    delegates here.  Pass ``compiled`` (the session cache path) to reuse
    an existing :class:`~repro.core.flatness.CompiledTesterSketches` —
    its verdict memo then carries over from earlier tester calls, which
    matters here because the left-greedy sweep re-probes exactly the
    intervals those calls already certified.

    The search runs once with ``max_pieces = max_k`` and reads the
    answer off the discovered partition: it is greedy from the left, so
    the number of flat intervals needed to cover ``[0, n)`` is exactly
    the smallest ``k`` the tester would accept with these samples.  The
    answer is sound up to the testers' epsilon-gap (a distribution
    epsilon-close to a k-histogram may be accepted at that ``k``).
    """
    return _run_sweep(
        n,
        epsilon,
        max_k,
        norm,
        params,
        lambda scale: resolve_flatness_oracle(
            multi, norm, epsilon, scale=scale, compiled=compiled
        ),
    )


def _reference_min_k(
    multi: MultiSketch,
    n: int,
    epsilon: float,
    *,
    max_k: int,
    norm: str = "l1",
    params: TesterParams,
) -> SelectionResult:
    """The min-k sweep on the per-query oracle: the tests' private reference.

    Same search as :func:`select_min_k_on_sketch`, but every probe
    re-runs the per-set searches over the raw sketch, with no compiled
    layout and no memo (see :func:`repro.core.tester._reference_test`).
    """
    return _run_sweep(
        n,
        epsilon,
        max_k,
        norm,
        params,
        lambda scale: flatness_oracle(multi, norm, epsilon, scale=scale),
    )


def _sweep_scale(
    n: int, epsilon: float, max_k: int, norm: str, params: TesterParams
) -> float:
    """Validate a sweep's ``max_k`` and ``norm``; its flatness scale."""
    if not 1 <= max_k <= n:
        raise InvalidParameterError(f"max_k must be in [1, n], got {max_k}")
    if norm not in ("l1", "l2"):
        raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
    return 1.0 if norm == "l2" else l1_effective_scale(n, max_k, epsilon, params)


def _run_sweep(
    n: int,
    epsilon: float,
    max_k: int,
    norm: str,
    params: TesterParams,
    oracle_at: Callable[[float], FlatnessOracle],
) -> SelectionResult:
    scale = _sweep_scale(n, epsilon, max_k, norm, params)
    partition, _ = flat_partition(n, max_k, oracle_at(scale))
    return _selection_from_partition(n, max_k, partition, params)


def _selection_from_partition(
    n: int,
    max_k: int,
    partition: "list[Interval]",
    params: TesterParams,
) -> SelectionResult:
    """Read the min-k answer off a left-greedy partition (shared logic)."""
    covered = partition[-1].stop if partition else 0
    found: int | None = len(partition) if covered >= n else None
    tried = [(k, found is not None and k >= found) for k in range(1, max_k + 1)]
    return SelectionResult(
        k=found,
        partition=partition,
        tried=tried,
        samples_used=params.total_samples,
    )


def select_min_k_on_fleet(
    fleet: FleetTesterSketches,
    n: int,
    epsilon: float,
    *,
    max_k: int,
    norm: str = "l1",
    params: TesterParams,
    members: "list[int] | None" = None,
) -> list[SelectionResult]:
    """The min-k search across a compiled fleet, lockstep-batched.

    The fleet-axis counterpart of :func:`select_min_k_on_sketch`: one
    validated oracle, one lockstep left-greedy sweep
    (:func:`repro.core.tester.fleet_flat_partition`), one
    :class:`SelectionResult` per member in member order — each
    byte-identical to the single-sketch search on that member's compiled
    sketches, memo accounting included.
    """
    scale = _sweep_scale(n, epsilon, max_k, norm, params)
    if members is None:
        members = list(range(fleet.fleet_size))
    oracle = fleet.oracle(norm, epsilon, scale=scale)
    outcomes = fleet_flat_partition(n, max_k, oracle, members)
    return [
        _selection_from_partition(n, max_k, partition, params)
        for partition, _ in outcomes
    ]
