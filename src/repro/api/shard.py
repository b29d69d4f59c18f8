"""`ShardPlan` + `ParallelExecutor`: the parallel shard engine's front.

The sharded sample layer (:mod:`repro.samples.sharded`) makes every
sketch compile a sum of independent per-shard summaries; this module
supplies the two objects that turn that algebra into throughput:

* :class:`ShardPlan` — how one logical sample pool splits into
  mergeable shards (deterministic contiguous chunks, so a sharded run
  is replayable and byte-identical to the monolithic one);
* :class:`ParallelExecutor` — an order-preserving ``map`` over a
  process pool, with ``workers=1`` falling back to inline execution
  (no pool, no shared memory, zero overhead).  Sample pools and prefix
  stacks travel through shared-memory slabs
  (:mod:`repro.utils.shm`), not pickles, so fanning a fleet's member
  compiles or a big batch of flatness misses across workers moves
  kilobyte handles, not megabyte arrays.

:class:`~repro.api.HistogramSession` and
:class:`~repro.api.HistogramFleet` accept either via ``executor=``; the
executor is *only* an evaluation strategy — every draw, verdict,
histogram, query log, and memo count is byte-identical to the
single-buffer engine for any ``(shards, workers)`` choice, which the
conformance matrix (``tests/test_conformance_matrix.py``) pins.

The executor owns its pool and any shared segments it allocated: call
:meth:`ParallelExecutor.close` (or use it as a context manager) when
done.  One executor can be shared by any number of sessions, fleets,
and maintainers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

import numpy as np

from repro.errors import InvalidParameterError
from repro.samples.sharded import sharded_interval_prefixes, shard_chunks
from repro.utils.faults import DELAY, KILL, FaultPlan
from repro.utils.shm import (
    SharedSlab,
    create_slab,
    register_parent_segment,
    unregister_parent_segment,
)

#: Bound on the structured health-event log an executor keeps.
_MAX_HEALTH_EVENTS = 64


class ShardPlan:
    """How a logical sample pool splits into mergeable shards.

    ``num_shards=1`` is the monolithic plan (every compile runs exactly
    the single-buffer code path).  Larger plans bound the size of any
    buffer that must be sorted at once to ``ceil(m / num_shards)``,
    which is what the out-of-core learn benchmark exercises; because
    shard combination is exact integer math, the compiled sketches do
    not depend on the plan.
    """

    __slots__ = ("_num_shards",)

    def __init__(self, num_shards: int = 1) -> None:
        if int(num_shards) != num_shards or num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be a positive integer, got {num_shards!r}"
            )
        self._num_shards = int(num_shards)

    @property
    def num_shards(self) -> int:
        """Number of shards every pool splits into."""
        return self._num_shards

    def split(self, values: np.ndarray) -> "list[np.ndarray]":
        """The plan's contiguous chunks of one raw sample array (views)."""
        return shard_chunks(values, self._num_shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardPlan(num_shards={self._num_shards})"


class _ExecutorState:
    """Everything a dead executor must give back to the OS.

    Split out of :class:`ParallelExecutor` so a ``weakref.finalize``
    callback can reap it without holding (and so immortalising) the
    executor itself.  The finalizer doubles as an ``atexit`` hook — the
    stdlib runs any still-pending finalizers at interpreter shutdown —
    so even an executor that is *never* collected (a crashed server's
    module global, say) stops stranding fork-pool workers and
    ``/dev/shm`` segments.
    """

    __slots__ = (
        "pool",
        "segments",
        "scratch",
        "retired",
        "closed",
        "degraded",
        "counters",
        "events",
        "timings",
    )

    def __init__(self) -> None:
        self.pool: ProcessPoolExecutor | None = None
        self.segments: list = []
        self.scratch: dict = {}
        self.retired: list = []
        self.closed = False
        self.degraded = False
        self.counters = {
            "worker_crashes": 0,
            "respawns": 0,
            "retried_tasks": 0,
            "degraded_maps": 0,
            "slab_fallbacks": 0,
        }
        self.events: list = []
        self.timings = {
            "compile": 0.0,
            "rescore": 0.0,
            "argmin": 0.0,
            "commit": 0.0,
        }


def _reap_executor(state: _ExecutorState) -> None:
    """Shut one executor's pool down and release its shared segments.

    The body of :meth:`ParallelExecutor.close`, shared with the
    GC/atexit safety net.  Idempotent: the first call wins, later calls
    (explicit ``close`` after a finalizer, or vice versa) are no-ops.
    """
    if state.closed:
        return
    state.closed = True
    if state.pool is not None:
        state.pool.shutdown(wait=True)
        state.pool = None
    for segment in state.segments + state.retired:
        unregister_parent_segment(segment.name)
        try:
            segment.close()
        except BufferError:  # pragma: no cover - live array views remain
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
    state.segments = []
    state.scratch = {}
    state.retired = []


class ParallelExecutor:
    """Deterministic fan-out over a process pool (``workers=1`` = inline).

    Parameters
    ----------
    workers:
        Pool size.  ``1`` (the default) never creates a pool or a
        shared segment — ``map`` runs inline, ``shared_zeros`` falls
        back to plain arrays — so an executor-accepting call site needs
        no second code path for the serial case.
    plan:
        The :class:`ShardPlan` compiles split pools by; defaults to one
        shard per worker.
    resolve_min_batch:
        Smallest number of batched flatness-miss rows worth shipping to
        the pool; smaller batches resolve inline (per-probe IPC would
        dwarf the numpy work).  The conformance tests set ``1`` to force
        the parallel path on tiny fleets.

    max_respawns:
        How many times a crashed pool (a worker SIGKILLed by the OOM
        killer, a segfaulting fork, an injected chaos kill) is respawned
        and the in-flight task batch re-issued before the executor
        *degrades*: permanently falls back to inline ``workers=1``
        execution.  Every task is a pure, idempotent write, so a
        re-issued or degraded batch is byte-identical to a healthy one.
    faults:
        A test-only :class:`~repro.utils.faults.FaultPlan` chaos seam;
        ``None`` (the default) costs nothing on any path.

    ``map`` preserves task order and runs every task exactly once *per
    attempt*, so a parallel run is a reordering of the same arithmetic —
    results are combined positionally by the callers, never by
    completion order.  Recovery rides the same property: a broken pool
    loses the whole attempt, and the retry recomputes every task, so a
    partially-completed crashed batch can never leak half-written state
    into a result (slab writes are per-task idempotent).

    The degradation ladder is ``parallel → respawn (bounded) → inline``;
    every rung is byte-identical, and each transition emits a structured
    health event (:meth:`health`).

    Lifecycle: :meth:`close` (or the context manager) is still the
    polite way out, but an executor that is dropped without it — a
    crashed server, an abandoned session — is reaped by a
    ``weakref.finalize`` safety net that shuts the fork pool down and
    unlinks every shared segment, at collection time or at interpreter
    exit, whichever comes first.  An executor that *degrades* reaps its
    ``/dev/shm`` names eagerly at that moment (no worker can ever attach
    again; parent-held mappings stay valid until close).
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        plan: ShardPlan | None = None,
        resolve_min_batch: int = 256,
        max_respawns: int = 2,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if int(workers) != workers or workers < 1:
            raise InvalidParameterError(
                f"workers must be a positive integer, got {workers!r}"
            )
        if resolve_min_batch < 1:
            raise InvalidParameterError(
                f"resolve_min_batch must be >= 1, got {resolve_min_batch!r}"
            )
        if int(max_respawns) != max_respawns or max_respawns < 0:
            raise InvalidParameterError(
                f"max_respawns must be a non-negative integer, got {max_respawns!r}"
            )
        self._workers = int(workers)
        self._plan = plan if plan is not None else ShardPlan(self._workers)
        self._resolve_min_batch = int(resolve_min_batch)
        self._max_respawns = int(max_respawns)
        self._faults = faults
        self._state = _ExecutorState()
        self._finalizer = weakref.finalize(self, _reap_executor, self._state)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def workers(self) -> int:
        """Pool size (1 = inline)."""
        return self._workers

    @property
    def plan(self) -> ShardPlan:
        """The shard plan compiles split pools by."""
        return self._plan

    @property
    def parallel(self) -> bool:
        """Whether this executor fans work across processes at all.

        Flips to ``False`` permanently once the executor degrades —
        callers that branch on it (fleet compiles, miss-batch fan-out)
        then take the serial code path, which is byte-identical.
        """
        return self._workers > 1 and not self._state.degraded

    @property
    def degraded(self) -> bool:
        """Whether the respawn budget was exhausted (inline-only now)."""
        return self._state.degraded

    @property
    def resolve_min_batch(self) -> int:
        """Smallest flatness-miss batch shipped to the pool."""
        return self._resolve_min_batch

    @property
    def max_respawns(self) -> int:
        """Pool respawns allowed before degrading to inline execution."""
        return self._max_respawns

    def record_timing(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock into a per-phase profiling bucket.

        The greedy learner bills its compile/rescore/argmin/commit time
        here; :meth:`health` (and the serving layer's ``stats()``)
        expose the buckets so perf work starts from a breakdown instead
        of a stopwatch.  Unknown phases get their own bucket.
        """
        timings = self._state.timings
        timings[phase] = timings.get(phase, 0.0) + float(seconds)

    def health(self) -> dict:
        """A structured snapshot of the executor's fault history.

        ``counters`` track worker crashes, pool respawns, re-issued
        tasks, maps served inline after degradation, and slab
        allocations that fell back to plain arrays; ``events`` is the
        bounded log of ladder transitions, oldest first; ``timings``
        holds the cumulative per-phase learn wall-clock buckets
        (:meth:`record_timing`).
        """
        state = self._state
        return {
            "workers": self._workers,
            "parallel": self.parallel,
            "degraded": state.degraded,
            "closed": state.closed,
            **dict(state.counters),
            "timings": dict(state.timings),
            "events": [dict(event) for event in state.events],
        }

    @property
    def _closed(self) -> bool:
        return self._state.closed

    @property
    def _segments(self) -> list:
        return self._state.segments

    def _record_event(self, kind: str, detail: str) -> None:
        events = self._state.events
        events.append({"kind": kind, "detail": detail})
        if len(events) > _MAX_HEALTH_EVENTS:
            del events[: len(events) - _MAX_HEALTH_EVENTS]

    # -------------------------------------------------------------- #
    # execution
    # -------------------------------------------------------------- #

    def map(self, fn, tasks: "list") -> list:
        """Run ``fn`` over ``tasks``, preserving order — and self-heal.

        Inline when the executor is serial, degraded, or the batch is
        trivial; otherwise through the (lazily created) process pool.
        ``fn`` must be a module-level function and every task picklable
        — which the shard task payloads (chunk arrays or
        :class:`~repro.utils.shm.SharedSlab` handles plus scalars) are.

        A pool broken mid-batch (worker death: SIGKILL, OOM, segfault)
        is respawned and the whole attempt re-issued, up to
        ``max_respawns`` times; past the budget the executor degrades
        permanently and serves this batch — and every later one —
        inline.  Tasks are pure idempotent writes, so every recovery
        rung returns byte-identical results.
        """
        tasks = list(tasks)
        if self._workers == 1 or self._state.degraded or len(tasks) <= 1:
            if self._state.degraded:
                self._state.counters["degraded_maps"] += 1
            return self._run_inline(fn, tasks)
        attempts = 0
        while True:
            payload, target = self._arm(fn, tasks)
            try:
                pool = self._ensure_pool()
                chunksize = max(1, len(tasks) // (self._workers * 2))
                return list(pool.map(target, payload, chunksize=chunksize))
            except BrokenExecutor:
                attempts += 1
                self._discard_broken_pool(attempts)
                if attempts > self._max_respawns:
                    self._degrade(
                        f"respawn budget ({self._max_respawns}) exhausted after "
                        f"{attempts} pool failures"
                    )
                    self._state.counters["degraded_maps"] += 1
                    return self._run_inline(fn, tasks)
                self._state.counters["retried_tasks"] += len(tasks)

    def _arm(self, fn, tasks: "list") -> tuple:
        """The (payload, target) for one attempt, faults armed if any.

        With no :class:`~repro.utils.faults.FaultPlan` this is the bare
        ``(tasks, fn)`` — zero overhead on the production path.  With a
        plan, each task is wrapped with its directive for this attempt;
        the plan's task counter advances per attempt, so a retried batch
        sees fresh schedule positions.
        """
        if self._faults is None:
            return tasks, fn
        directives = self._faults.task_directives(len(tasks))
        parent_pid = os.getpid()
        return (
            [
                (fn, task, directive, parent_pid)
                for task, directive in zip(tasks, directives)
            ],
            _run_with_fault,
        )

    def _run_inline(self, fn, tasks: "list") -> list:
        """One attempt executed in-process (serial/degraded/trivial)."""
        payload, target = self._arm(fn, tasks)
        return [target(task) for task in payload]

    def _discard_broken_pool(self, attempt: int) -> None:
        """Tear the broken pool down and log the crash; respawn is lazy."""
        state = self._state
        state.counters["worker_crashes"] += 1
        self._record_event(
            "worker_crash", f"pool broken on map attempt {attempt}"
        )
        if state.pool is not None:
            state.pool.shutdown(wait=True)
            state.pool = None
        if attempt <= self._max_respawns:
            state.counters["respawns"] += 1
            self._record_event(
                "respawn", f"pool respawned (attempt {attempt + 1})"
            )
        # Mappings parked by release() under live views can be retried
        # now — eager reaping, rather than waiting for close/finalize.
        still_parked = []
        for segment in state.retired:
            try:
                segment.close()
                unregister_parent_segment(segment.name)
            except BufferError:  # pragma: no cover - views still live
                still_parked.append(segment)
        state.retired = still_parked

    def _degrade(self, reason: str) -> None:
        """Fall back to inline execution for good; reap shm names now.

        The executor keeps serving — every later :meth:`map` runs in the
        parent, :meth:`shared_zeros` / :meth:`scratch` hand out plain
        arrays — but nothing will ever attach a segment by name again,
        so every ``/dev/shm`` name is unlinked *eagerly* instead of at
        close/finalize.  Parent-held mappings (live compiled stacks)
        survive via the parent-segment registry until :meth:`close`.
        """
        state = self._state
        if state.degraded:  # pragma: no cover - defensive; degrade is one-way
            return
        state.degraded = True
        self._record_event("degraded", reason)
        if state.pool is not None:  # pragma: no cover - pool already torn down
            state.pool.shutdown(wait=True)
            state.pool = None
        for segment in state.segments:
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        state.retired.extend(state.segments)
        state.segments = []
        state.scratch = {}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise InvalidParameterError("executor is closed")
        if self._state.pool is None:
            methods = multiprocessing.get_all_start_methods()
            # fork shares the parent's read-only state for free and
            # starts in milliseconds; spawn is the portable fallback.
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._state.pool = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=context
            )
        return self._state.pool

    # -------------------------------------------------------------- #
    # shared-memory slabs
    # -------------------------------------------------------------- #

    def shared_zeros(
        self, shape: tuple, dtype=np.int64
    ) -> tuple[np.ndarray, SharedSlab | None]:
        """A zeroed array workers can attach to, plus its handle.

        On a serial (or degraded) executor this is a plain ``np.zeros``
        with a ``None`` handle — callers branch on the handle, not on
        the worker count.  An allocation that fails — a full
        ``/dev/shm``, or an injected chaos fault — degrades to the same
        plain-array shape rather than raising, bumping the
        ``slab_fallbacks`` health counter.  Segments are owned by the
        executor and released by :meth:`close`.
        """
        if self._workers == 1 or self._state.degraded:
            return np.zeros(shape, dtype=dtype), None
        if self._closed:
            raise InvalidParameterError("executor is closed")
        if self._faults is not None and self._faults.take_alloc():
            self._note_slab_fallback("injected allocation failure")
            return np.zeros(shape, dtype=dtype), None
        try:
            segment, array, slab = create_slab(shape, dtype, zero=True)
        except OSError as exc:  # pragma: no cover - needs a full /dev/shm
            self._note_slab_fallback(f"shared allocation failed: {exc}")
            return np.zeros(shape, dtype=dtype), None
        register_parent_segment(segment)
        self._state.segments.append(segment)
        return array, slab

    def scratch(
        self, key: str, shape: tuple, dtype=np.int64
    ) -> tuple[np.ndarray, SharedSlab | None]:
        """A reusable (uninitialised) shared scratch slab, keyed.

        One segment lives per ``key``, grown when a request outsizes it
        — so a fleet recompiling dirty members on every refresh reuses
        one input slab instead of leaking a segment per pass.  Serial
        and degraded executors return a plain array and a ``None``
        handle, as does an allocation that fails (injected or real) —
        callers already branch on the handle.
        """
        if self._workers == 1 or self._state.degraded:
            return np.empty(shape, dtype=dtype), None
        if self._closed:
            raise InvalidParameterError("executor is closed")
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        segment = self._state.scratch.get(key)
        if segment is not None and segment.size < nbytes:
            self._state.segments.remove(segment)
            del self._state.scratch[key]
            unregister_parent_segment(segment.name)
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            try:
                segment.close()
            except BufferError:  # pragma: no cover - live array views remain
                self._state.retired.append(segment)
            segment = None
        if segment is None:
            if self._faults is not None and self._faults.take_alloc():
                self._note_slab_fallback("injected allocation failure")
                return np.empty(shape, dtype=dtype), None
            try:
                segment = create_slab(shape, dtype, zero=False)[0]
            except OSError as exc:  # pragma: no cover - needs a full /dev/shm
                self._note_slab_fallback(f"shared allocation failed: {exc}")
                return np.empty(shape, dtype=dtype), None
            register_parent_segment(segment)
            self._state.scratch[key] = segment
            self._state.segments.append(segment)
        array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        return array, SharedSlab(segment.name, tuple(shape), dtype.str)

    def _note_slab_fallback(self, detail: str) -> None:
        """Record one slab request served by a plain (private) array."""
        self._state.counters["slab_fallbacks"] += 1
        self._record_event("slab_fallback", detail)

    def release(self, *slabs: "SharedSlab | None") -> None:
        """Release ``shared_zeros`` segments before :meth:`close`.

        Long-lived executors serve many short-lived fleets; each fleet
        registers a finalizer that hands its stack slabs back here when
        it is collected, so ``/dev/shm`` usage tracks the *live* fleets
        rather than every fleet ever built.  The segment's name is
        unlinked immediately; if some array still exports the buffer
        (e.g. a session kept a compiled member alive past its fleet),
        the mapping is parked and unmapped at :meth:`close`.  Idempotent
        and safe after :meth:`close`.
        """
        if self._closed:
            return
        state = self._state
        for slab in slabs:
            if slab is None:
                continue
            segment = next(
                (s for s in state.segments if s.name == slab.name), None
            )
            if segment is None:
                continue
            state.segments.remove(segment)
            unregister_parent_segment(segment.name)
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            try:
                segment.close()
            except BufferError:  # pragma: no cover - live array views remain
                state.retired.append(segment)

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Shut the pool down and release every shared segment.

        Idempotent, and interchangeable with the GC safety net: an
        executor dropped without ``close()`` is reaped by its
        ``weakref.finalize`` (at collection or interpreter exit), and a
        ``close()`` after that is a no-op.
        """
        self._finalizer()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelExecutor(workers={self._workers}, "
            f"plan={self._plan!r}, closed={self._closed})"
        )


# ------------------------------------------------------------------ #
# worker task functions (module-level, picklable)
# ------------------------------------------------------------------ #


def _run_with_fault(payload: tuple):
    """Run one task with its chaos directive armed (fault-plan seam).

    ``payload``: ``(fn, task, directive, parent_pid)``.  A ``kill``
    directive SIGKILLs the worker process *before* the task body — but
    only off the parent: when the task ends up executing inline (serial,
    degraded, or trivial-batch paths) the kill is skipped and the
    healthy computation runs, which is what keeps every rung of the
    degradation ladder byte-identical.  A ``delay`` directive sleeps
    first and leaves the result untouched.
    """
    fn, task, directive, parent_pid = payload
    if directive is not None:
        kind = directive[0]
        if kind == KILL and os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - worker dies
        elif kind == DELAY:
            time.sleep(directive[1])
    return fn(task)


def _compile_member_rows(args: tuple) -> None:
    """Compile one fleet member's slab from the shared sample stack.

    ``args``: ``(sets_slab, row, fleet_index, n, dense, num_shards,
    count_slab, pair_slab)``.  Reads member ``row``'s ``(r, m)`` sample
    sets from the input slab, builds its hit/pair prefix rows through
    the shard-mergeable builder (bit-equal to the monolithic
    :meth:`~repro.core.flatness.FleetTesterSketches.compile_member`
    path), and writes the ``(n + 1, r)`` gather layout straight into
    the fleet's shared stacks — nothing but the handle travels back.
    """
    (sets_slab, row, fleet_index, n, dense, num_shards, count_slab, pair_slab) = args
    sets = sets_slab.attach()[row]
    grid = np.arange(n + 1, dtype=np.int64)
    count_rows, pair_rows = sharded_interval_prefixes(
        list(sets), n, grid, num_shards=num_shards, dense=dense
    )
    count_slab.attach()[fleet_index] = count_rows.T
    pair_slab.attach()[fleet_index] = pair_rows.T
