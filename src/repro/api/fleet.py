"""`HistogramFleet`: batched learn/test over many distributions at once.

The session facade (:class:`~repro.api.HistogramSession`) amortises work
*within* one distribution; a serving deployment watches a fleet of
streams over one shared domain and asks the same questions of each.
Looping sessions answers that correctly but pays a Python-level binary
search per probe, per member, ``F`` times.  :class:`HistogramFleet`
batches across members:

* **pooled draws** — every operation grows all members' sample pools in
  one planned pass (each member's draws stay in its own generator's
  session order, which is what keeps the fleet replayable);
* **stacked compilation** — each member's hit/pair prefix arrays come
  from the same function a session compiles with
  (:func:`repro.samples.collision.interval_prefixes`) and are stacked
  on a leading fleet axis
  (:class:`~repro.core.flatness.FleetTesterSketches`);
* **lockstep probing** — ``test_l2`` / ``test_l1`` / ``test_many`` /
  ``min_k`` run every member's Algorithm 2 search in lockstep
  (:func:`repro.core.tester.fleet_flat_partition`), batching fresh
  flatness statistics across members while each member keeps its own
  verdict memo;
* **one learn call** — ``learn`` / ``learn_many`` compile each member's
  grid in its own session's cache
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

import numpy as np

from repro.api.session import HistogramSession
from repro.core.flatness import FleetTesterSketches
# perfbench/ledger.py wraps compile_greedy_sketches under this module's name.
from repro.core.greedy import LockstepRun, compile_greedy_sketches, lockstep_learn  # noqa: F401
from repro.core.params import GreedyParams, TesterParams, validate_k
from repro.core.results import LearnResult, TestResult
from repro.core.selection import SelectionResult, select_min_k_on_fleet
from repro.core.tester import fleet_test_on_sketches
from repro.errors import InvalidParameterError
from repro.utils.rng import spawn_rngs


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
    scale / method / learn_budget / test_budget / max_candidates:
        As in :class:`~repro.api.HistogramSession`, applied to every
        member.

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
        self._n = int(n)
        self._method = method
        self._max_candidates = max_candidates
        self._sessions = [
            HistogramSession(
                source,
                n,
                rng=member_rng,
                scale=scale,
                method=method,
                learn_budget=learn_budget,
                test_budget=test_budget,
                max_candidates=max_candidates,
            )
            for source, member_rng in zip(sources, rngs)
        ]
        # One FleetTesterSketches per tester budget, lazily built and
        # repaired member by member (see _fleet_tester).
        self._tester_fleet_cache: dict[tuple[int, int], FleetTesterSketches] = {}

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def size(self) -> int:
        """Number of fleet members ``F``."""
        return len(self._sessions)

    @property
    def n(self) -> int:
        """The shared domain size."""
        return self._n

    def session(self, member: int) -> HistogramSession:
        """Member ``member``'s underlying session (shared pools and all)."""
        return self._sessions[self._member(member)]

    @property
    def samples_drawn(self) -> list[int]:
        """Per-member total samples drawn so far."""
        return [session.samples_drawn for session in self._sessions]

    @property
    def draw_events(self) -> list[dict[str, int]]:
        """Per-member pool-filling draw events (diagnostics)."""
        return [session.draw_events for session in self._sessions]

    def generation(self, member: int) -> int:
        """Member ``member``'s mutation epoch (see
        :attr:`HistogramSession.generation`)."""
        return self._sessions[self._member(member)].generation

    @property
    def generations(self) -> list[int]:
        """Per-member mutation epochs."""
        return [session.generation for session in self._sessions]

    def invalidate(self, member: int | None = None) -> None:
        """Forget drawn samples and sketches, fleet-wide or per member.

        Per-member invalidation is lazy and local: only that member's
        pools, caches, and fleet slabs drop; every other member's
        compiled state (and verdict memos) survives untouched.  The next
        operation re-draws and recompiles just the stale member.
        """
        members = range(self.size) if member is None else (self._member(member),)
        for index in members:
            self._sessions[index].invalidate()
            for fleet_sketches in self._tester_fleet_cache.values():
                fleet_sketches.drop_member(index)

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def snapshot(self, path) -> None:
        """Write every member's warm state to one snapshot file.

        The stacked ``(F, n+1, r)`` tester slabs are not persisted —
        a restored fleet re-adopts each member's compiled layout into
        fresh stacks on the next operation, byte-identically.
        """
        from repro.persist import codec, format as persist_format

        meta, slabs = codec.fleet_state(self)
        persist_format.write_snapshot(path, kind="fleet", meta=meta, slabs=slabs)

    def restore(self, path) -> None:
        """Adopt a whole-fleet snapshot in place (zero-copy per member).

        The snapshot must come from a fleet of the same shape and
        configuration (``n``, member count, method, candidate cap); anything else —
        including a missing or corrupt file — raises
        :class:`~repro.errors.SnapshotError` and leaves the fleet able
        to rebuild cold.
        """
        from repro.persist import codec, format as persist_format

        snap = persist_format.load_snapshot(path, kind="fleet")
        codec.restore_fleet(self, snap.meta, snap.slab)

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

        Each listed member's pools are grown and its grid compiled in
        its session's cache, member by member, then one
        :func:`repro.core.greedy.lockstep_learn` call runs every
        member's greedy rounds.  Results are the sessions' results, byte
        for byte.  ``members`` restricts the op to a subset of the fleet
        (results come back in the listed order) — the entry point
        serving batches and partial maintainer rebuilds coalesce into.
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

        Each member compiles in its own session's cache
        (:meth:`HistogramSession._learn_run`), member by member — pool
        draws and any candidate-cap rng consumption in the order looped
        sessions would use, which keeps the fleet equal to them draw for
        draw.
        """
        method = self._method if method is None else method
        if max_candidates is None:
            max_candidates = self._max_candidates
        runs = []
        for k, epsilon in points:
            resolved = self._sessions[0]._learn_params(k, epsilon, params)
            runs.extend(
                self._sessions[member]._learn_run(resolved, method, max_candidates)
                for member in members
            )
        return runs

    def prefetch_learn(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        params: GreedyParams | None = None,
    ) -> None:
        """Grow every member's learn pool to cover a planned grid."""
        points = list(grid)
        for session in self._sessions:
            session.prefetch_learn(points, params=params)

    def learn_many(
        self,
        grid: Iterable[tuple[int, float]],
        *,
        method: str | None = None,
        params: GreedyParams | None = None,
        max_candidates: int | None = None,
    ) -> list[list[LearnResult]]:
        """:meth:`learn` at every grid point; one result list per member.

        Mirrors :meth:`HistogramSession.learn_many`: pools are prefetched
        to the grid's elementwise-largest budget before any point runs,
        so the whole batch issues at most one draw event per member.
        The entire ``F x P`` batch — every member at every grid point —
        then goes to one :func:`repro.core.greedy.lockstep_learn` call.
        Returns ``results[member][point]``.
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

    def _member(self, member: int) -> int:
        """Validate one member index (negative indices are refused)."""
        member = int(member)
        if not 0 <= member < self.size:
            raise InvalidParameterError(
                f"member must be in [0, {self.size}), got {member}"
            )
        return member

    def _members(self, members: "Sequence[int] | None") -> list[int]:
        """Normalise and validate a member-subset argument."""
        if members is None:
            return list(range(self.size))
        return [self._member(member) for member in members]

    def _fleet_tester(
        self, resolved: TesterParams, members: "list[int]"
    ) -> FleetTesterSketches:
        """The stacked compiled sketches for one budget, repaired lazily.

        A member's slab is valid exactly when its session's bundle still
        caches the same compiled object the fleet planted — anything
        else (fresh member, per-member invalidation, even a direct
        ``session.invalidate()`` behind the fleet's back) recompiles
        that one slab from the member's pool and replants it.  Only the
        listed members are drawn for and compiled.
        """
        key = (resolved.num_sets, resolved.set_size)
        fleet_sketches = self._tester_fleet_cache.get(key)
        if fleet_sketches is None:
            fleet_sketches = FleetTesterSketches(
                self._n, resolved.num_sets, resolved.set_size, self.size
            )
            self._tester_fleet_cache[key] = fleet_sketches
        for index in members:
            bundle = self._sessions[index]._bundle
            member = fleet_sketches.member_or_none(index)
            cached = bundle._tester_compiled_cache.get(key)
            if member is not None and cached is member:
                continue
            if cached is not None:
                # The session compiled this budget itself (e.g. a direct
                # session call before the fleet op): keep its object —
                # and its memo — and mirror the layout into the slab.
                fleet_sketches.adopt_member(index, cached)
                continue
            member = fleet_sketches.compile_member(
                index, bundle.tester_sets(resolved)
            )
            bundle.adopt_compiled_tester(resolved, member)
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
        resolved = self._sessions[0]._test_params(norm, k, epsilon, params)
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
        """Theorem 3's tester per member (one lockstep search).

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
        """Theorem 4's tester per member (one lockstep search)."""
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

        Mirrors :meth:`HistogramSession.test_many`: every member's pool
        is grown once to the grid's largest resolved budget, so the
        batch issues at most one draw event per member, and grid points
        sharing a budget share each member's verdict memo.  Returns
        ``results[member][point]`` (members in the listed order).
        """
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        members = self._members(members)
        points = [(validate_k(k, self._n), epsilon) for k, epsilon in grid]
        if points:
            resolved = [
                self._sessions[0]._test_params(norm, k, e, params) for k, e in points
            ]
            cover = TesterParams(
                num_sets=max(p.num_sets for p in resolved),
                set_size=max(p.set_size for p in resolved),
            )
            for member in members:
                self._sessions[member]._bundle.ensure_tester_pool(cover)
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
        """Smallest piece count per member (one lockstep sweep).

        The same answer as :meth:`HistogramSession.min_k`: for l2 the
        smallest ``k`` :meth:`test_l2` accepts, for l1 possibly more
        than the smallest ``k`` :meth:`test_l1` accepts.  Shares each
        member's test-family pool and verdict memo with :meth:`test_l1`
        / :meth:`test_l2`.  ``members`` restricts the sweep to a subset
        of the fleet.
        """
        max_k = self._n if max_k is None else validate_k(max_k, self._n, name="max_k")
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        members = self._members(members)
        resolved = self._sessions[0]._test_params(norm, max_k, epsilon, params)
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
