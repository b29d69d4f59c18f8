"""Model selection: estimate the smallest credible ``k`` by testing.

The paper's testers decide membership for a *given* ``k``; iterating them
over increasing ``k`` turns them into a sub-linear model-selection
procedure (the smallest accepted ``k`` is a credible bucket count).  To
avoid paying the sample complexity once per candidate ``k``, the search
reuses one set of sample sets across all candidates — Algorithm 2 already
takes a union bound over all ``n^2`` intervals, so reuse is sound.

This module is an extension beyond the paper (README.md, "Design notes"):
the paper's machinery composes into it directly.
:func:`select_min_k_on_fleet` is the pure half operating on compiled
sketches (the one min-k entry point; a session's sketches are a
one-member fleet's), and :meth:`repro.api.HistogramSession.min_k` /
:meth:`repro.api.HistogramFleet.min_k` the draw-once, sketch-reusing
front doors; :func:`_reference_min_k` runs the same sweep on the
per-query oracle as the tests' private reference.

What the sweep returns depends on the norm.  One partition search runs
at ``max_pieces = max_k``, and the answer is the number of flat pieces
it needed.  For l2 that is exactly the smallest ``k`` whose own tester
call accepts on the same samples, because the l2 flatness test does not
depend on ``k``.  For l1 it is not: the sweep probes every interval at
the light-interval scale of ``max_k``
(:func:`repro.core.tester.l1_effective_scale`), while ``test_l1(k)``
uses the scale of its own ``k``.  That threshold is higher whenever the
scale is below 1, so ``test_l1`` may accept a smaller ``k`` than the l1
sweep reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flatness import FleetTesterSketches, flatness_oracle
from repro.core.params import TesterParams
from repro.core.tester import _search_scale, flat_partition, fleet_flat_partition
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

    Same search as :func:`select_min_k_on_fleet`, but every probe
    re-runs the per-set searches over the raw sketch, with no compiled
    layout and no memo (see :func:`repro.core.tester._reference_test`).
    """
    max_k, scale = _search_scale(n, max_k, epsilon, norm, params, name="max_k")
    partition, _ = flat_partition(
        n, max_k, flatness_oracle(multi, norm, epsilon, scale=scale)
    )
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
    """Smallest piece count the left-greedy flat partition needs, up to ``max_k``.

    The one min-k entry point, on compiled sketches (no source access)
    and pure in their contents: one validated oracle, one left-greedy
    sweep over the listed members (default: all) through
    :func:`repro.core.tester.fleet_flat_partition`, one
    :class:`SelectionResult` per member in the listed order.  The sweep
    reads and extends each member's verdict memo, which matters because
    it re-probes exactly the intervals earlier tester calls already
    certified.

    The search runs once with ``max_pieces = max_k`` and reads the
    answer off the discovered partition: the number of flat intervals
    it needed to cover ``[0, n)``.  For ``norm="l2"`` that is exactly
    the smallest ``k`` the tester accepts with these samples.  For
    ``norm="l1"`` every interval is probed at ``max_k``'s light-interval
    scale, which can differ from the scale ``test_l1(k)`` uses, so the
    answer can exceed the smallest ``k`` that ``test_l1`` accepts (see
    the module docstring).  Either way the answer is sound up to the
    testers' epsilon-gap (a distribution epsilon-close to a k-histogram
    may be accepted at that ``k``).
    """
    max_k, scale = _search_scale(n, max_k, epsilon, norm, params, name="max_k")
    if members is None:
        members = list(range(fleet.fleet_size))
    oracle = fleet.oracle(norm, epsilon, scale=scale)
    outcomes = fleet_flat_partition(n, max_k, oracle, members)
    return [
        _selection_from_partition(n, max_k, partition, params)
        for partition, _ in outcomes
    ]
