"""Maintain k-histogram summaries over one or many parallel streams.

Each stream pairs an exact uniform reservoir (Vitter's Algorithm R) with
periodic rebuilds by the paper's fast greedy learner.  Between rebuilds
a summary is stale by at most ``refresh_every`` items, which bounds its
extra error by the mass of the unseen suffix; the reservoir keeps
rebuild quality independent of the stream length.

:class:`FleetMaintainer` keeps one reservoir per stream and drives them
all through a :class:`~repro.api.HistogramFleet`, so rebuilds, tester
probes, and min-k sweeps run fleet-batched (one compile pass, lockstep
searches) instead of stream-by-stream.  A single stream is
``FleetMaintainer(1, n, k, ...)``.

Invalidation is lazy and per member: absorbing items into one stream's
reservoir marks only that member stale, and the next fleet operation
re-draws and recompiles just the stale members — the quiet streams keep
their pools, compiled slabs, and verdict memos.
"""

from __future__ import annotations

import numpy as np

from repro.api.fleet import HistogramFleet
from repro.core.identity import IdentityResult, test_identity_l2_on_sketch
from repro.core.params import (
    GreedyParams,
    TesterParams,
    validate_epsilon,
    validate_k,
    validate_member,
)
from repro.core.results import LearnResult, TestResult, UniformityResult
from repro.core.selection import SelectionResult
from repro.core.uniformity import test_uniformity_on_sketch
from repro.errors import EmptyStreamError, InvalidParameterError
from repro.histograms.intervals import Interval
from repro.histograms.tiling import TilingHistogram
from repro.streaming.reservoir import ReservoirSampler
from repro.utils.rng import spawn_rngs


class FleetMaintainer:
    """K-histogram summaries of ``F`` streams of values from ``[0, n)``.

    Parameters
    ----------
    fleet_size:
        Number of streams ``F``.
    n / k / epsilon:
        Domain size, histogram budget, and learner accuracy (Theorem 2
        semantics at ``scale=1``), shared by every stream.
    refresh_every:
        Rebuild a member's histogram after this many new items on that
        member (default ``4 * reservoir_capacity``).
    reservoir_capacity:
        Per-stream reservoir size (default 4096).
    params:
        Explicit learner sizes.  The default is matched to the
        reservoir, which cannot support more independent information
        than it holds: a weight sample of ``capacity // 2`` and 5
        collision sets of ``capacity // 5``, so the sets fit in one
        permutation of a full reservoir and share no slot
        (:meth:`~repro.streaming.ReservoirSampler.sample_sets`).  The
        tester probes' default is 5 sets of ``capacity // 5`` for the
        same reason.  Both set sizes are at least 16.
    rng:
        Base seed; one independent child generator is spawned per
        stream (its reservoir and session draws share it).
    """

    def __init__(
        self,
        fleet_size: int,
        n: int,
        k: int,
        epsilon: float = 0.25,
        *,
        refresh_every: int | None = None,
        reservoir_capacity: int = 4096,
        params: GreedyParams | None = None,
        rng: "int | None | np.random.Generator" = None,
    ) -> None:
        fleet_size = validate_k(fleet_size, name="fleet_size")
        self._n = validate_k(n, name="n")
        self._k = validate_k(k)
        self._epsilon = validate_epsilon(epsilon)
        rngs = spawn_rngs(rng, fleet_size)
        self._reservoirs = [
            ReservoirSampler(reservoir_capacity, member_rng) for member_rng in rngs
        ]
        self._refresh_every = (
            int(refresh_every) if refresh_every is not None else 4 * reservoir_capacity
        )
        if self._refresh_every < 1:
            raise InvalidParameterError("refresh_every must be >= 1")
        if params is None:
            budget = reservoir_capacity
            params = GreedyParams(
                weight_sample_size=max(budget // 2, 16),
                collision_sets=5,
                collision_set_size=max(budget // 5, 16),
                rounds=max(self._k, 2),
            )
        self._params = params
        self._fleet = HistogramFleet(
            self._reservoirs,
            self._n,
            rngs=rngs,
            method="fast",
        )
        self._items_seen = [0] * fleet_size
        self._since_rebuild = [0] * fleet_size
        self._stale = [False] * fleet_size
        self._rebuilds = 0
        self._histograms: list[TilingHistogram | None] = [None] * fleet_size
        # Maintainer-level mutation counters: reservoir intake and stored
        # -histogram commits, which the fleet's bundle epochs cannot see.
        self._mutations = [0] * fleet_size

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def fleet_size(self) -> int:
        """Number of streams ``F``."""
        return len(self._reservoirs)

    @property
    def items_seen(self) -> list[int]:
        """Per-member total stream items observed."""
        return list(self._items_seen)

    @property
    def rebuilds(self) -> int:
        """How many greedy rebuilds have run (fleet-wide)."""
        return self._rebuilds

    @property
    def ready(self) -> list[bool]:
        """Per-stream flag: has this stream absorbed any observation?

        Probing a not-ready stream raises :class:`EmptyStreamError`; a
        serving layer checks here first so one quiet stream turns into a
        structured per-request error instead of poisoning its batch.
        """
        return [reservoir.size > 0 for reservoir in self._reservoirs]

    @property
    def fleet(self) -> HistogramFleet:
        """The underlying fleet facade (pools, caches, diagnostics)."""
        return self._fleet

    def generation(self, member: int) -> int:
        """Stream ``member``'s mutation epoch.

        The sum of the maintainer's own mutation counter (reservoir
        intake, stored-histogram commits) and the member bundle's epoch
        (pool growth, compiles, invalidation, restore).  Both addends
        are monotonic, so the sum is too: equal generations bracket a
        span in which nothing about the member's retained state changed,
        which is what response caches and differential checkpoints key
        on.
        """
        member = validate_member(member, self.fleet_size)
        return self._mutations[member] + self._fleet.generation(member)

    @property
    def generations(self) -> list[int]:
        """Per-stream mutation epochs (see :meth:`generation`)."""
        return [
            self._mutations[f] + self._fleet.generation(f)
            for f in range(self.fleet_size)
        ]

    def _probe_members(self, members: "list[int] | None") -> list[int]:
        """Validate a probe's member subset and its streams' readiness.

        Probing a stream before its first observation is an
        :class:`EmptyStreamError`; pass ``members=`` to probe the ready
        subset of a fleet whose other streams are still quiet.
        """
        if members is None:
            members = list(range(self.fleet_size))
        else:
            members = [validate_member(member, self.fleet_size) for member in members]
        empty = [f for f in members if self._reservoirs[f].size == 0]
        if empty:
            raise EmptyStreamError(
                f"streams {empty} have no observations yet; update() them "
                "first (or probe with members= excluding them)"
            )
        return members

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def snapshot(self, path) -> None:
        """Checkpoint the whole maintainer to one snapshot file.

        Covers every layer a warm restart needs: per-stream reservoirs
        and intake counters, stored histograms, staleness flags, and the
        fleet's full warm state (pools, compiled slabs, verdict memos,
        rng states).  Crash-safe: a kill mid-write leaves the previous
        snapshot generation untouched.
        """
        from repro.persist import codec, format as persist_format

        meta, slabs = codec.maintainer_state(self)
        persist_format.write_snapshot(
            path, kind="maintainer", meta=meta, slabs=slabs
        )

    def restore(self, path) -> None:
        """Warm-start a freshly constructed maintainer from a snapshot.

        The maintainer must be configured exactly as the snapshotted one
        (``fleet_size``, ``n``, ``k``, ``epsilon``, reservoir capacity,
        refresh cadence, learner budget); a restored maintainer then
        answers byte-identical responses to the live instance the
        snapshot was taken from.  Any mismatch or file defect raises
        :class:`~repro.errors.SnapshotError`; the instance remains
        usable cold.
        """
        from repro.persist import codec, format as persist_format

        snap = persist_format.load_snapshot(path, kind="maintainer")
        codec.restore_maintainer(self, snap.meta, snap.slab)

    # -------------------------------------------------------------- #
    # stream intake
    # -------------------------------------------------------------- #

    def update(self, member: int, value: int) -> None:
        """Observe one item on stream ``member``.

        ``value`` must be a Python or NumPy integer: like a float or
        bool batch in :meth:`update_many`, a float is refused before the
        reservoir sees it rather than silently truncated, and a bool
        rather than taken as domain point 0 or 1.
        """
        member = validate_member(member, self.fleet_size)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise InvalidParameterError(
                f"stream {member}: value must be an integer, got {value!r} "
                f"(values are domain points in [0, {self._n}))"
            )
        if not 0 <= value < self._n:
            raise InvalidParameterError(
                f"stream value {value} outside the domain [0, {self._n})"
            )
        self._reservoirs[member].update(int(value))
        self._items_seen[member] += 1
        self._since_rebuild[member] += 1
        self._stale[member] = True
        self._mutations[member] += 1

    def update_many(self, member: int, values: np.ndarray) -> None:
        """Observe a batch of items on stream ``member``.

        The whole batch is validated up front — dtype and range, in one
        vectorised pass — so a bad batch raises a single
        :class:`InvalidParameterError` naming the member and the
        offending values *before* any item is absorbed (the reservoir
        never sees half a batch).  An empty batch, of any dtype, is a
        no-op: the member stays fresh and its generation does not move.
        """
        member = validate_member(member, self.fleet_size)
        values = np.asarray(values)
        if values.size == 0:
            return
        if values.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"stream {member}: batch dtype must be integer, got "
                f"{values.dtype} (values are domain points in [0, {self._n}))"
            )
        if values.min() < 0 or values.max() >= self._n:
            raise InvalidParameterError(
                f"stream {member}: batch values span "
                f"[{int(values.min())}, {int(values.max())}], outside the "
                f"domain [0, {self._n})"
            )
        self._reservoirs[member].update_many(values)
        self._items_seen[member] += int(values.size)
        self._since_rebuild[member] += int(values.size)
        self._stale[member] = True
        self._mutations[member] += 1

    def _sync(self) -> None:
        """Lazily drop stale members' pools before the next fleet op."""
        for member, stale in enumerate(self._stale):
            if stale:
                self._fleet.invalidate(member)
                self._stale[member] = False

    # -------------------------------------------------------------- #
    # summaries
    # -------------------------------------------------------------- #

    def histograms(self) -> list[TilingHistogram]:
        """Every stream's current summary, rebuilding due members.

        Members whose streams absorbed at least ``refresh_every`` items
        since their last rebuild (or that never built) relearn in one
        fleet-batched ``learn`` pass; fresh members keep their summary.
        """
        return self.histograms_for(None)

    def histograms_for(
        self, members: "list[int] | None" = None
    ) -> list[TilingHistogram]:
        """Current summaries for a member subset, in the listed order.

        Due members of the subset (never built, or at least
        ``refresh_every`` items since their last rebuild) relearn in one
        fleet-batched ``learn(members=due)`` pass — a partial rebuild
        pays greedy rounds only for the due streams while still sharing
        the fleet's pooled draws and stacked compile; fresh members keep
        their summary untouched.  This is the entry point selectivity
        serving batches ride.
        """
        members = self._probe_members(members)
        due = [
            f
            for f in members
            if self._histograms[f] is None
            or self._since_rebuild[f] >= self._refresh_every
        ]
        if due:
            self._sync()
            results = self._fleet.learn(
                self._k, self._epsilon, params=self._params, members=due
            )
            for f, result in zip(due, results):
                self._histograms[f] = result.filled_histogram
                self._since_rebuild[f] = 0
                self._rebuilds += 1
                self._mutations[f] += 1
        return [self._histograms[f] for f in members]

    def histogram(self, member: int) -> TilingHistogram:
        """One stream's current summary (rebuilding lazily if needed)."""
        return self.histograms_for([member])[0]

    # -------------------------------------------------------------- #
    # testing the streams
    # -------------------------------------------------------------- #

    def _tester_params(self, params: TesterParams | None) -> TesterParams:
        if params is not None:
            return params
        # Like the learner default: the reservoir cannot support more
        # independent information than it holds, so the 5 sets together
        # fit in it and a full reservoir cuts them disjoint.
        return TesterParams(
            num_sets=5, set_size=max(self._reservoirs[0].capacity // 5, 16)
        )

    def test(
        self,
        k: int | None = None,
        epsilon: float | None = None,
        *,
        norm: str = "l2",
        params: TesterParams | None = None,
        members: "list[int] | None" = None,
    ) -> list[TestResult]:
        """Test every stream for tiling k-histogram structure, batched.

        Defaults to the maintainer's own ``(k, epsilon)``; one verdict
        per stream, in the listed member order (``members`` restricts
        the probe — e.g. to the ready subset while some streams are
        still quiet).  Repeated probes between stream updates share each
        member's draw, compiled slab, and verdict memo; only members
        that absorbed new items re-draw.
        """
        members = self._probe_members(members)
        if norm not in ("l1", "l2"):
            raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
        k = self._k if k is None else validate_k(k, self._n)
        epsilon = self._epsilon if epsilon is None else validate_epsilon(epsilon)
        self._sync()
        resolved = self._tester_params(params)
        runner = self._fleet.test_l2 if norm == "l2" else self._fleet.test_l1
        return runner(k, epsilon, params=resolved, members=members)

    def min_k(
        self,
        epsilon: float | None = None,
        *,
        max_k: int | None = None,
        norm: str = "l1",
        params: TesterParams | None = None,
        members: "list[int] | None" = None,
    ) -> list[SelectionResult]:
        """Smallest credible bucket count per stream, batched.

        Useful for adapting ``k`` as a stream drifts; shares each
        member's session budget (and verdict memo) with :meth:`test`.
        ``members`` restricts the sweep, as in :meth:`test`.
        """
        members = self._probe_members(members)
        if max_k is not None:
            max_k = validate_k(max_k, self._n, name="max_k")
        epsilon = self._epsilon if epsilon is None else validate_epsilon(epsilon)
        self._sync()
        return self._fleet.min_k(
            epsilon,
            max_k=max_k,
            norm=norm,
            params=self._tester_params(params),
            members=members,
        )

    def learn(
        self,
        k: int | None = None,
        epsilon: float | None = None,
        *,
        params: GreedyParams | None = None,
        members: "list[int] | None" = None,
    ) -> list[LearnResult]:
        """Run the greedy learner *now* on a member subset, fleet-batched.

        Defaults to the maintainer's own ``(k, epsilon)``; an explicit
        pair learns at a different operating point without touching the
        maintainer's configuration.  When the pair *is* the configured
        one, each learned summary also refreshes that stream's stored
        histogram (and resets its rebuild counter) — this is the
        learn-after-failed-test path a serving client drives.
        """
        members = self._probe_members(members)
        k = self._k if k is None else validate_k(k)
        epsilon = self._epsilon if epsilon is None else validate_epsilon(epsilon)
        self._sync()
        results = self._fleet.learn(
            k, epsilon, params=params if params is not None else self._params,
            members=members,
        )
        if k == self._k and epsilon == self._epsilon and params is None:
            for member, result in zip(members, results):
                self._histograms[member] = result.filled_histogram
                self._since_rebuild[member] = 0
                self._rebuilds += 1
                self._mutations[member] += 1
        return results

    def _probe_sketch(self, member: int, params: TesterParams):
        """One stream's disjoint pooled tester sets, sketched and cached.

        Uniformity and identity are whole-domain collision statistics —
        they read a single :class:`~repro.samples.collision.CollisionSketch`,
        not the ``r``-set flatness machinery — over the union of the
        member's tester sets (:meth:`repro.api.SketchBundle.probe_sketch`),
        so the probe costs no separate draw event.  At the default
        budget on a full reservoir the union is ``r x set_size <=
        capacity`` distinct slots.  A partly filled reservoir starts a
        new permutation when the next set does not fit, and those sets
        overlap the earlier ones, so the probe reads only the sets cut
        from the first permutation: no slot counts twice.  Returns the
        sketch and its samples.
        """
        held = self._reservoirs[member].size
        disjoint = min(params.num_sets, max(held // params.set_size, 1))
        return self._fleet.bundle(member).probe_sketch(params, disjoint)

    def uniformity(
        self,
        epsilon: float | None = None,
        *,
        params: TesterParams | None = None,
        members: "list[int] | None" = None,
    ) -> list[UniformityResult]:
        """[GR00] uniformity verdict per stream, off the shared pool.

        The ``k = 1`` specialist: accepts iff the stream's collision
        probability sits at the uniform level.  One verdict per listed
        member; repeated probes between updates are O(1) per member
        (the sketch build is cached alongside the tester pool).
        """
        members = self._probe_members(members)
        epsilon = self._epsilon if epsilon is None else validate_epsilon(epsilon)
        self._sync()
        resolved = self._tester_params(params)
        return [
            test_uniformity_on_sketch(
                self._probe_sketch(member, resolved)[0], epsilon
            )
            for member in members
        ]

    def identity(
        self,
        reference: object,
        epsilon: float | None = None,
        *,
        params: TesterParams | None = None,
        members: "list[int] | None" = None,
    ) -> list[IdentityResult]:
        """l2 identity verdict per stream against an explicit reference.

        ``reference`` is the known ``q`` (pmf array, distribution, or
        histogram) shared by every probed member — the serving pattern
        is "which tenants still match the baseline profile?".  Reads
        the same cached whole-domain collision sketch as
        :meth:`uniformity`.
        """
        members = self._probe_members(members)
        epsilon = self._epsilon if epsilon is None else validate_epsilon(epsilon)
        self._sync()
        resolved = self._tester_params(params)
        results = []
        for member in members:
            sketch, samples = self._probe_sketch(member, resolved)
            results.append(
                test_identity_l2_on_sketch(sketch, samples, reference, epsilon)
            )
        return results

    def selectivity(
        self,
        start: int,
        stop: int,
        *,
        members: "list[int] | None" = None,
    ) -> list[float]:
        """Estimated mass of ``[start, stop)`` per stream's summary.

        Reads each stream's current histogram through
        :meth:`histograms_for`, so due members rebuild (fleet-batched)
        before answering; the range sum itself is a piece-overlap walk,
        no dense expansion.
        """
        start, stop = int(start), int(stop)
        if not 0 <= start < stop <= self._n:
            raise InvalidParameterError(
                f"selectivity range [{start}, {stop}) outside the domain "
                f"[0, {self._n})"
            )
        interval = Interval(start, stop)
        return [
            float(histogram.range_mass(interval))
            for histogram in self.histograms_for(members)
        ]
