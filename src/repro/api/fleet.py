"""`HistogramFleet`: batched learn/test over many distributions at once.

The session facade (:class:`~repro.api.HistogramSession`) amortises work
*within* one distribution; a serving deployment watches a fleet of
streams over one shared domain and asks the same questions of each.
Looping sessions answers that correctly but pays a Python-level binary
search per probe, per member, ``F`` times.  :class:`HistogramFleet` is
the one facade both ride: a session is a one-member fleet.  Each member
owns one
:class:`~repro.api.SketchBundle` (its sample pools and learn compiles),
budgets are resolved once for every member, and the fleet batches
across members:

* **pooled draws** — every operation grows all members' sample pools in
  one planned pass (each member's draws stay in its own generator's
  order, which is what keeps the fleet replayable);
* **stacked compilation** — each member's compiled tester layout
  (dense prefix rows or sparse sorted keys, by budget) is stacked on a
  leading fleet axis
  (:class:`~repro.core.flatness.FleetTesterSketches`, one per budget and
  the one owner of its members' compiles: snapshots read and restore
  them there);
* **lockstep probing** — ``test_l2`` / ``test_l1`` / ``test_many`` /
  ``min_k`` run every member's Algorithm 2 search in lockstep
  (:func:`repro.core.tester.fleet_flat_partition`), batching fresh
  flatness statistics across members while each member keeps its own
  verdict memo; a lone member steps the single-oracle search on its own
  compiled sketches, since it has nothing to batch;
* **one learn call** — ``learn`` / ``learn_many`` compile each member's
  grid in its own bundle's cache
  (:meth:`repro.api.SketchBundle.compiled_sketches`) and hand all
  members' runs to one :func:`repro.core.greedy.lockstep_learn` call.

The binding contract: every
fleet operation is **byte-identical** — verdicts, learned histograms,
query logs, and per-member memo accounting — to looping
``HistogramSession(sources[f], n, rng=rngs[f], ...)`` over the members
with the same seeds.  ``BENCH_fleet.json`` tracks the measured speedup.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace

import numpy as np

from repro.api.sketches import SketchBundle
from repro.api.source import as_sample_source
from repro.core.flatness import CompiledTesterSketches, FleetTesterSketches
# perfbench/ledger.py wraps compile_greedy_sketches under this module's name.
from repro.core.greedy import LockstepRun, compile_greedy_sketches, lockstep_learn  # noqa: F401
from repro.core.params import (
    GreedyParams,
    TesterParams,
    greedy_rounds,
    validate_epsilon,
    validate_k,
    validate_member,
)
from repro.core.results import LearnResult, TestResult
from repro.core.selection import SelectionResult, select_min_k_on_fleet
from repro.core.tester import fleet_test_on_sketches
from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng, spawn_rngs


class HistogramFleet:
    """Vectorised learn/test facade over ``F`` sources sharing a domain.

    Parameters
    ----------
    sources:
        One entry per member — anything
        :func:`repro.api.as_sample_source` accepts.
    n:
        The shared domain size.
    rngs:
        Per-member seeds or generators (one per source).  Member ``f``
        of the fleet is byte-equivalent to
        ``HistogramSession(sources[f], n, rng=rngs[f], ...)``.
    rng:
        Alternative to ``rngs``: a base seed/generator from which one
        independent child generator per member is spawned
        (:func:`repro.utils.rng.spawn_rngs`).  Mutually exclusive with
        ``rngs``.
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

    Operations return one result per member, in member order.
    """

    def __init__(
        self,
        sources: Sequence[object],
        n: int,
        *,
        rngs: "Sequence[int | None | np.random.Generator] | None" = None,
        rng: "int | None | np.random.Generator" = None,
        scale: float = 1.0,
        method: str = "fast",
        learn_budget: GreedyParams | None = None,
        test_budget: TesterParams | None = None,
        max_candidates: int | None = None,
    ) -> None:
        sources = list(sources)
        if not sources:
            raise InvalidParameterError("HistogramFleet needs at least one source")
        if rngs is not None and rng is not None:
            raise InvalidParameterError("pass rngs or rng, not both")
        if rngs is None:
            rngs = spawn_rngs(rng, len(sources))
        else:
            rngs = list(rngs)
            if len(rngs) != len(sources):
                raise InvalidParameterError(
                    f"got {len(sources)} sources but {len(rngs)} rngs"
                )
        self._n = validate_k(n, name="n")
        self._scale = float(scale)
        self._method = method
        self._learn_budget = learn_budget
        self._test_budget = test_budget
        self._max_candidates = max_candidates
        # One bundle per member; each member's generator owns its draws.
        self._bundles = [
            SketchBundle(as_sample_source(source, self._n), self._n, as_rng(member_rng))
            for source, member_rng in zip(sources, rngs)
        ]
        # One FleetTesterSketches per tester budget, the owner of its
        # members' compiles, filled member by member (see _fleet_tester).
        self._tester_fleet_cache: dict[tuple[int, int], FleetTesterSketches] = {}
        # Per member: each budget whose slot it filled, with the bundle's
        # tester_epoch at the fill; the latest fill last, as snapshots
        # list them.
        self._tester_fills: list[dict[tuple[int, int], int]] = [
            {} for _ in self._bundles
        ]

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def size(self) -> int:
        """Number of fleet members ``F``."""
        return len(self._bundles)

    @property
    def n(self) -> int:
        """The shared domain size."""
        return self._n

    def bundle(self, member: int) -> SketchBundle:
        """Member ``member``'s sample pools and learn compiles."""
        return self._bundles[validate_member(member, self.size)]

    def tester_compiles(
        self, member: int
    ) -> "dict[tuple[int, int], CompiledTesterSketches]":
        """Member ``member``'s current tester compiles by ``(num_sets, set_size)``.

        In the order they were compiled or restored, which is the order
        a snapshot lists them in; a slot gone stale (see
        :meth:`_fleet_tester`) is left out.
        """
        member = validate_member(member, self.size)
        epoch = self._bundles[member].tester_epoch
        return {
            key: self._tester_fleet_cache[key].member(member)
            for key, filled in self._tester_fills[member].items()
            if filled == epoch
        }

    @property
    def samples_drawn(self) -> list[int]:
        """Per-member total samples drawn so far."""
        return [bundle.samples_drawn for bundle in self._bundles]

    @property
    def draw_events(self) -> list[dict[str, int]]:
        """Per-member pool-filling draw events (diagnostics)."""
        return [dict(bundle.draw_events) for bundle in self._bundles]

    def generation(self, member: int) -> int:
        """Member ``member``'s mutation epoch (see
        :attr:`repro.api.SketchBundle.generation`)."""
        return self._bundles[validate_member(member, self.size)].generation

    @property
    def generations(self) -> list[int]:
        """Per-member mutation epochs."""
        return [bundle.generation for bundle in self._bundles]

    def invalidate(self, member: int | None = None) -> None:
        """Forget drawn samples and sketches, fleet-wide or per member.

        Per-member invalidation is lazy and local: only that member's
        pools and caches drop, and its tester slots go stale with its
        bundle's :attr:`~repro.api.SketchBundle.tester_epoch`; every other
        member's compiled state (and verdict memos) survives untouched.
        The next operation re-draws and recompiles just the stale member.
        """
        members = (
            range(self.size) if member is None else (validate_member(member, self.size),)
        )
        for index in members:
            self._bundles[index].invalidate()

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def snapshot(self, path) -> None:
        """Write every member's warm state to one snapshot file.

        Each member's pools, learn compiles, tester compiles (verdict
        memos included), draw counters and generator state.  The stacks
        themselves are not persisted: a restored member keeps its mapped
        arrays, and a call over several members copies them in.
        """
        from repro.persist import codec, format as persist_format

        meta, slabs = codec.fleet_state(self)
        persist_format.write_snapshot(path, kind="fleet", meta=meta, slabs=slabs)

    def restore(self, path) -> None:
        """Adopt a whole-fleet snapshot in place (zero-copy per member).

        The snapshot must come from a fleet of the same shape and
        configuration (``n``, member count, method, candidate cap);
        anything else — including a missing or corrupt file — raises
        :class:`~repro.errors.SnapshotError` and leaves the fleet able
        to rebuild cold.
        """
        from repro.persist import codec, format as persist_format

        snap = persist_format.load_snapshot(path, kind="fleet")
        codec.restore_fleet(self, snap.meta, snap.slab)

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
        members: "Sequence[int] | None" = None,
    ) -> list[LearnResult]:
        """Learn a near-optimal k-histogram per member, batched.

        The guarantee is relative to the best tiling k-histogram
        ``H*``: ``||p - H||_2^2 <= ||p - H*||_2^2 + 5 eps`` for
        ``method="exhaustive"`` (Theorem 1), ``+ 8 eps`` for
        ``method="fast"`` (Theorem 2), at ``scale = 1``.  Each listed
        member's pools are grown and its grid compiled in its bundle's
        cache, member by member, then one
        :func:`repro.core.greedy.lockstep_learn` call runs every
        member's greedy rounds.  ``members`` restricts the op to a
        subset of the fleet (results come back in the listed order) —
        the entry point serving batches and partial maintainer rebuilds
        coalesce into.
        """
        runs = self._learn_runs(
            self._members(members), [(k, epsilon)], method, params, max_candidates
        )
        return lockstep_learn(runs)

    def _learn_runs(
        self,
        members: "list[int]",
        points: "list[tuple[int, float]]",
        method: str | None,
        params: GreedyParams | None,
        max_candidates: int | None,
    ) -> "list[LockstepRun]":
        """One run per (point, member), point-major and member-minor.

        Each member compiles (or fetches) in its own bundle's cache
        (:meth:`repro.api.SketchBundle.compiled_sketches`), member by
        member — pool draws and any candidate-cap rng consumption in the
        order looped sessions would use, which keeps the fleet equal to
        them draw for draw.
        """
        method = self._method if method is None else method
        if max_candidates is None:
            max_candidates = self._max_candidates
        runs = []
        for k, epsilon in points:
            resolved = self._learn_params(k, epsilon, params)
            for member in members:
                _, compiled = self._bundles[member].compiled_sketches(
                    resolved, method=method, max_candidates=max_candidates
                )
                runs.append(
                    LockstepRun(
                        compiled=compiled, params=resolved, method=method, n=self._n
                    )
                )
        return runs

    def prefetch_learn(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        params: GreedyParams | None = None,
    ) -> None:
        """Grow every member's learn pool to cover a planned grid up front.

        One draw event per member covers the elementwise-largest
        resolved budget; the subsequent :meth:`learn` calls are then
        sample-free.  Useful on its own to move sampling cost out of a
        timed or latency-sensitive region.
        """
        resolved = [self._learn_params(k, e, params) for k, e in grid]
        if not resolved:
            return
        cover = GreedyParams(
            weight_sample_size=max(p.weight_sample_size for p in resolved),
            collision_sets=max(p.collision_sets for p in resolved),
            collision_set_size=max(p.collision_set_size for p in resolved),
            rounds=1,
        )
        for bundle in self._bundles:
            bundle.ensure_learn_pool(cover)

    def learn_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        method: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
    ) -> list[list[LearnResult]]:
        """:meth:`learn` at every grid point; one result list per member.

        The whole grid is planned before anything is drawn
        (:meth:`prefetch_learn`), so the batch issues at most one draw
        event per member regardless of grid size.  The entire ``F x P``
        batch — every member at every grid point — then goes to one
        :func:`repro.core.greedy.lockstep_learn` call, byte-identical to
        calling :meth:`learn` per point.  Returns
        ``results[member][point]``.
        """
        points = list(grid)
        self.prefetch_learn(points, params=params)
        runs = self._learn_runs(
            self._members(None), points, method, params, max_candidates
        )
        results = lockstep_learn(runs)
        return [
            [results[p * self.size + f] for p in range(len(points))]
            for f in range(self.size)
        ]

    # -------------------------------------------------------------- #
    # testing
    # -------------------------------------------------------------- #

    def _members(self, members: "Sequence[int] | None") -> list[int]:
        """Normalise and validate a member-subset argument.

        A member may be listed once: a repeat would run its search twice
        against one memo, so its memo accounting would no longer match
        looped sessions.
        """
        if members is None:
            return list(range(self.size))
        members = [validate_member(member, self.size) for member in members]
        if len(set(members)) < len(members):
            raise InvalidParameterError(f"members must not repeat, got {members}")
        return members

    def _testers(self, key: "tuple[int, int]") -> FleetTesterSketches:
        """The stacked compiles of one ``(num_sets, set_size)`` budget."""
        fleet_sketches = self._tester_fleet_cache.get(key)
        if fleet_sketches is None:
            fleet_sketches = FleetTesterSketches(self._n, *key, self.size)
            self._tester_fleet_cache[key] = fleet_sketches
        return fleet_sketches

    def _filled(self, member: int, key: "tuple[int, int]") -> None:
        """Record ``member``'s slot at ``key`` as over its current sets."""
        fills = self._tester_fills[member]
        fills.pop(key, None)
        fills[key] = self._bundles[member].tester_epoch

    def _restore_tester(self, member: int, compiled: CompiledTesterSketches) -> None:
        """Fill ``member``'s slot with a restored compile: no compile runs
        and no generation moves (see
        :meth:`~repro.core.flatness.FleetTesterSketches.restore_member`)."""
        key = (compiled.num_sets, compiled.set_size)
        self._testers(key).restore_member(member, compiled)
        self._filled(member, key)

    def _fleet_tester(
        self, resolved: TesterParams, members: "list[int]"
    ) -> FleetTesterSketches:
        """The stacked compiled sketches for one budget, compiled lazily.

        A member's slot is current while its bundle's
        :attr:`~repro.api.SketchBundle.tester_epoch` reads what it read
        when the slot was filled.  An empty or stale slot (fresh member,
        invalidation, a family redrawn to grow, even a direct
        ``bundle.invalidate()`` behind the fleet's back) recompiles from
        the member's pool, which bumps its generation once; only the
        listed members are drawn for and compiled.  A call over two or
        more members searches the stacks, so the restored members it
        lists are copied in first; a lone member's search reads only its
        object, so it allocates no stack.
        """
        key = (resolved.num_sets, resolved.set_size)
        fleet_sketches = self._testers(key)
        for index in members:
            bundle = self._bundles[index]
            if self._tester_fills[index].get(key) != bundle.tester_epoch:
                fleet_sketches.compile_member(index, bundle.tester_sets(resolved))
                # After the draw: a redraw to grow moves the epoch.
                self._filled(index, key)
                bundle.generation += 1
        if len(members) > 1:
            fleet_sketches.stack(members)
        return fleet_sketches

    def _run_test(
        self,
        norm: str,
        k: int,
        epsilon: float,
        params: TesterParams | None,
        members: "Sequence[int] | None" = None,
    ) -> list[TestResult]:
        members = self._members(members)
        k = validate_k(k, self._n)
        resolved = self._test_params(norm, k, epsilon, params)
        fleet_sketches = self._fleet_tester(resolved, members)
        return fleet_test_on_sketches(
            fleet_sketches, self._n, k, epsilon, norm, resolved, members=members
        )

    def test_l2(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[TestResult]:
        """Theorem 3's tester per member, in one search.

        Runs on each member's cached
        :class:`~repro.core.flatness.CompiledTesterSketches`, sharing its
        flatness-verdict memo with every other tester or min-k call on
        the same budget; two or more members search in lockstep.  At
        ``scale = 1``, members are accepted and distributions eps-far in
        l2 are rejected, each with probability at least 2/3.
        ``members`` restricts the op to a subset of the fleet (results
        come back in the listed order); the default covers everyone.
        """
        return self._run_test("l2", k, epsilon, params, members)

    def test_l1(
        self,
        k: int,
        epsilon: float,
        *,
        params: TesterParams | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[TestResult]:
        """Theorem 4's tester per member, in one search (see :meth:`test_l2`)."""
        return self._run_test("l1", k, epsilon, params, members)

    def test_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        norm: str = "l2",
        params: TesterParams | None = None,
        members: "Sequence[int] | None" = None,
    ) -> list[list[TestResult]]:
        """The tester at every grid point; one verdict list per member.

        Every member's pool is grown once to the grid's largest resolved
        budget before any point runs, so the batch issues at most one
        draw event per member, and grid points sharing a budget share
        each member's verdict memo: interval verdicts established at one
        ``k`` are free at every other.  Returns
        ``results[member][point]`` (members in the listed order).
        """
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        members = self._members(members)
        points = [(validate_k(k, self._n), epsilon) for k, epsilon in grid]
        if points:
            resolved = [self._test_params(norm, k, e, params) for k, e in points]
            cover = TesterParams(
                num_sets=max(p.num_sets for p in resolved),
                set_size=max(p.set_size for p in resolved),
            )
            for member in members:
                self._bundles[member].ensure_tester_pool(cover)
        per_point = [
            self._run_test(norm, k, epsilon, params, members)
            for k, epsilon in points
        ]
        return [
            [point_results[i] for point_results in per_point]
            for i in range(len(members))
        ]

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
        members: "Sequence[int] | None" = None,
    ) -> list[SelectionResult]:
        """Smallest piece count per member, up to ``max_k``, in one sweep.

        ``max_k`` defaults to ``n``.  For l2 the answer is the smallest
        ``k`` :meth:`test_l2` accepts on the same samples; for l1 it may
        be larger than the smallest ``k`` :meth:`test_l1` accepts (see
        :func:`repro.core.selection.select_min_k_on_fleet`).  Shares each
        member's test-family pool and verdict memo with :meth:`test_l1`
        / :meth:`test_l2`.  ``members`` restricts the sweep to a subset
        of the fleet.
        """
        max_k = self._n if max_k is None else validate_k(max_k, self._n, name="max_k")
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        members = self._members(members)
        resolved = self._test_params(norm, max_k, epsilon, params)
        fleet_sketches = self._fleet_tester(resolved, members)
        return select_min_k_on_fleet(
            fleet_sketches,
            self._n,
            epsilon,
            max_k=max_k,
            norm=norm,
            params=resolved,
            members=members,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramFleet(F={self.size}, n={self._n}, "
            f"samples_drawn={sum(self.samples_drawn)})"
        )
