"""`HistogramService`: request coalescing over a maintained fleet.

The fleet layers answer *batches* fast — pooled draws, stacked
compiles, lockstep Algorithm-2 searches — but a serving deployment
receives *requests*: concurrent connections each asking one question of
one named stream.  This module is the layer between the two:

* **admission** — :meth:`HistogramService.submit` validates the stream
  name and enqueues the request on a bounded admission queue; a full
  queue is an explicit :class:`~repro.errors.OverloadedError` with a
  ``retry_after`` hint (backpressure, not silent buffering).
* **coalescing** — a single collector task drains the queue in windows
  (up to ``max_batch`` requests, lingering at most ``max_linger_us``
  for stragglers once one request is in hand) and partitions each
  window into *hazard-safe* batches: requests sharing an operation
  signature fan into one :class:`~repro.streaming.FleetMaintainer`
  batch op, while requests on the same stream never reorder across a
  different-signature request (their pool draws interleave on the
  member's private generator, so cross-signature order is what keeps
  results replayable).  Duplicate in-window requests share one
  execution.
* **response caching** — repeat non-mutating requests are served at
  admission from a bounded LRU keyed by
  ``(stream, generation, request identity)``.  The generation epoch
  (:meth:`~repro.streaming.FleetMaintainer.generation`) moves on every
  state mutation, so a cached hit is byte-identical to a cold execution
  by construction; a pending ingest/learn on a stream fences later
  reads of that stream until it resolves, preserving per-stream
  ordering.
* **backpressure-safe shutdown** — :meth:`close` stops admission
  (later submits raise :class:`~repro.errors.ServiceClosedError`) and
  drains the backlog.
* **warm starts** — restores and checkpoints go through one
  :class:`~repro.persist.chain.CheckpointChain`; the service keeps the
  cadence (``checkpoint_every``, skipping windows in which no generation
  moved) and its stream list, which a restore must match.

The binding contract mirrors every engine PR before it: for any
``(max_batch, max_linger_us)`` choice, the canonical response
trace (:func:`repro.serving.requests.canonical`) is **byte-identical**
to request-at-a-time serving (``max_batch=1``) of the same admission
order — verdicts, histograms, and flatness query logs included.  The
speedup is real but free of semantics: ``BENCH_serve.json`` tracks it.
"""

from __future__ import annotations

import asyncio
import os
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import GreedyParams, TesterParams, is_integer, validate_k
from repro.distributions.distances import as_pmf
from repro.errors import (
    DeadlineExceededError,
    EmptyStreamError,
    InvalidParameterError,
    OverloadedError,
    ReproError,
    ServiceClosedError,
    SnapshotError,
    UnknownStreamError,
)
from repro.histograms.intervals import Interval
from repro.persist.chain import CheckpointChain
from repro.serving.requests import (
    CACHEABLE_OPS,
    OPS,
    Request,
    Response,
    error_response,
)
from repro.streaming.fleet import FleetMaintainer

_STOP = object()


@dataclass(frozen=True)
class ServiceConfig:
    """The serving layer's knobs.

    Attributes
    ----------
    max_batch:
        Largest admission window (and so largest fleet batch) the
        coalescer forms.  ``1`` disables coalescing — the
        request-at-a-time reference the conformance suite compares
        against.
    max_linger_us:
        After the first request of a window arrives, how long (in
        microseconds) the coalescer waits for stragglers before
        serving a short window.  ``0`` serves whatever is already
        queued without waiting.
    max_queue:
        Admission queue bound; a submit beyond it is rejected with
        :class:`~repro.errors.OverloadedError`.
    retry_after_s:
        The backoff hint (seconds) carried by overload rejections.
    cache_capacity:
        Bound on the response cache (entries); ``0`` disables it.  The
        cache serves repeat non-mutating requests at admission, keyed by
        ``(stream, generation, request identity)`` — an ingest or learn
        bumps the stream's generation and structurally orphans its
        entries, so a hit is always byte-identical to a cold execution.
    """

    max_batch: int = 32
    max_linger_us: float = 500.0
    max_queue: int = 1024
    retry_after_s: float = 0.05
    cache_capacity: int = 256

    def __post_init__(self) -> None:
        validate_k(self.max_batch, name="max_batch")
        if self.max_linger_us < 0:
            raise InvalidParameterError(
                f"max_linger_us must be >= 0, got {self.max_linger_us!r}"
            )
        validate_k(self.max_queue, name="max_queue")
        if self.retry_after_s < 0:
            raise InvalidParameterError(
                f"retry_after_s must be >= 0, got {self.retry_after_s!r}"
            )
        if not is_integer(self.cache_capacity) or self.cache_capacity < 0:
            raise InvalidParameterError(
                f"cache_capacity must be a non-negative integer, got "
                f"{self.cache_capacity!r}"
            )


class HistogramService:
    """Asyncio front end over a :class:`~repro.streaming.FleetMaintainer`.

    Parameters
    ----------
    streams:
        The hosted stream names, one fleet member each (order fixes the
        member indices).
    n / k / epsilon:
        The shared domain size and the maintainer's default operating
        point, as in :class:`~repro.streaming.FleetMaintainer`.
    config:
        The :class:`ServiceConfig` batching/backpressure knobs.
    references:
        Named reference distributions identity requests resolve against
        (``Request.identity(stream, "baseline", ...)``); more can be
        registered later via :meth:`register_reference`.
    reservoir_capacity / refresh_every / params / rng:
        Forwarded to the maintainer.
    snapshot_dir:
        Directory of the warm-start checkpoint chain
        (:class:`~repro.persist.chain.CheckpointChain`, created if
        missing).  At construction the service restores the chain's
        newest link; success warm-starts the whole maintainer tree
        (:attr:`warm_started` turns true), and *any* restore failure —
        no file yet, corrupt or truncated file, a configuration or
        stream-list mismatch — records its reason
        (:attr:`restore_error`) and falls back to a cold build, never a
        crash.  A draining :meth:`close` always writes a final
        checkpoint; crash-safe atomic writes mean a kill mid-checkpoint
        leaves the previous generation restorable.
    checkpoint_every:
        Additionally checkpoint after every this-many admission windows
        (between windows, under the collector — checkpoints never
        interleave with a batch).  ``None`` (default) checkpoints only
        at drain-close.  Requires ``snapshot_dir``.  Windows in which no
        stream's generation moved (only rejected, expired, or repeat
        read traffic) skip the write — checkpoint cost follows churn,
        not wall-clock.
    checkpoint_mode:
        ``"full"`` (default) re-writes every slab each checkpoint.
        ``"delta"`` writes differential links that re-write only the
        slabs of members whose generation moved; the chain compacts to
        a full write at :data:`~repro.persist.format.MAX_CHAIN` links,
        or whenever a link cannot be expressed.  Requires
        ``snapshot_dir``.

    Use as an async context manager, or call :meth:`start` /
    :meth:`close` explicitly.  All execution happens on the event-loop
    thread — the service is a batching layer, not a thread pool; its
    concurrency win is turning queued requests into fleet ops.
    """

    def __init__(
        self,
        streams: Sequence[str],
        n: int,
        k: int,
        epsilon: float = 0.25,
        *,
        config: ServiceConfig | None = None,
        references: "Mapping[str, object] | None" = None,
        reservoir_capacity: int = 4096,
        refresh_every: int | None = None,
        params: GreedyParams | None = None,
        tester_params: TesterParams | None = None,
        rng: "int | None | np.random.Generator" = None,
        snapshot_dir: "str | os.PathLike | None" = None,
        checkpoint_every: int | None = None,
        checkpoint_mode: str = "full",
    ) -> None:
        streams = list(streams)
        if not streams:
            raise InvalidParameterError("HistogramService needs at least one stream")
        if len(set(streams)) != len(streams):
            raise InvalidParameterError("stream names must be unique")
        self._names = streams
        self._index = {name: member for member, name in enumerate(streams)}
        self._config = config if config is not None else ServiceConfig()
        self._maintainer = FleetMaintainer(
            len(streams),
            n,
            k,
            epsilon,
            reservoir_capacity=reservoir_capacity,
            refresh_every=refresh_every,
            params=params,
            rng=rng,
        )
        self._tester_params = tester_params
        self._n = int(n)
        self._references: dict[str, np.ndarray] = {}
        for name, reference in (references or {}).items():
            self.register_reference(name, reference)
        self._queue: asyncio.Queue | None = None
        self._collector: asyncio.Task | None = None
        self._accepting = False
        self._stats = {
            "submitted": 0,
            "served": 0,
            "rejected": 0,
            "windows": 0,
            "batches": 0,
            "coalesced": 0,
            "largest_batch": 0,
            "deadline_hits": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "checkpoints": 0,
            "checkpoint_failures": 0,
            "checkpoint_bytes": 0,
        }
        self._cache: "OrderedDict[tuple, Response]" = OrderedDict()
        self._pending_mutations: dict[str, int] = {}
        if checkpoint_mode not in ("full", "delta"):
            raise InvalidParameterError(
                f"checkpoint_mode must be 'full' or 'delta', got "
                f"{checkpoint_mode!r}"
            )
        if checkpoint_mode == "delta" and snapshot_dir is None:
            raise InvalidParameterError("checkpoint_mode='delta' requires snapshot_dir")
        if checkpoint_every is not None:
            if snapshot_dir is None:
                raise InvalidParameterError("checkpoint_every requires snapshot_dir")
            checkpoint_every = validate_k(checkpoint_every, name="checkpoint_every")
        self._checkpoint_every = checkpoint_every
        self._chain: CheckpointChain | None = None
        self._restored_from: str | None = None
        self._restore_error: str | None = None
        if snapshot_dir is not None:
            self._chain = CheckpointChain(snapshot_dir, delta=checkpoint_mode == "delta")
            try:
                self._restored_from = self._chain.restore(
                    self._maintainer, {"streams": self._names}
                )
            except SnapshotError as exc:
                # Graceful degradation: a missing, corrupt, truncated,
                # or mismatched snapshot means a cold start, never a
                # crash.  (A partial maintainer restore cannot leak —
                # restore raises before touching state at that layer.)
                self._restore_error = f"{exc.reason}: {exc}"

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def streams(self) -> list[str]:
        """The hosted stream names, in member order."""
        return list(self._names)

    @property
    def maintainer(self) -> FleetMaintainer:
        """The underlying fleet maintainer (reservoirs, summaries)."""
        return self._maintainer

    @property
    def config(self) -> ServiceConfig:
        """The batching/backpressure knobs."""
        return self._config

    @property
    def snapshot_path(self) -> str | None:
        """The checkpoint chain's full base (``None`` without ``snapshot_dir``)."""
        return None if self._chain is None else self._chain.base_path

    @property
    def warm_started(self) -> bool:
        """Whether construction restored state from a snapshot."""
        return self._restored_from is not None

    @property
    def restored_from(self) -> str | None:
        """The checkpoint file the warm start restored — in delta mode
        the newest chain link, not the full parent (``None`` if cold)."""
        return self._restored_from

    @property
    def restore_error(self) -> str | None:
        """Why the warm-start restore fell back cold (``None`` if it didn't)."""
        return self._restore_error

    @property
    def stats(self) -> dict:
        """The serving counters.

        Per-layer timings are not kept here; ``perfbench/run.py --trace
        1`` breaks a replay's wall time down by layer.
        """
        return dict(self._stats)

    def health(self) -> dict:
        """One structured snapshot of service health.

        ``stats`` are the serving counters (including ``deadline_hits``
        and ``rejected``).
        """
        return {
            "streams": len(self._names),
            "accepting": self._accepting,
            "warm_started": self.warm_started,
            "generations": self._maintainer.generations,
            "stats": self.stats,
        }

    def register_reference(self, name: str, reference: object) -> None:
        """Register a named reference for identity requests.

        The reference (pmf array, distribution, or histogram) is coerced
        once and stored as a vector, which must be finite, non-negative,
        1-d and of length ``n``.  It need not sum to one: a learned
        histogram with gaps is a fair reference.
        """
        try:
            vector = as_pmf(reference)
        except (ReproError, TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"identity reference {name!r} is not a vector: {exc}"
            ) from exc
        if vector.shape != (self._n,) or not np.all(np.isfinite(vector) & (vector >= 0)):
            raise InvalidParameterError(
                f"identity reference {name!r} must be a finite, non-negative "
                f"vector of length n={self._n}"
            )
        self._references[name] = vector

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def checkpoint(self) -> str:
        """Write one crash-safe checkpoint of the whole maintainer tree.

        The service's :class:`~repro.persist.chain.CheckpointChain`
        picks the file: the full base, or in ``checkpoint_mode="delta"``
        a differential link (see the chain for when it compacts).  The
        write is temp-file + fsync + atomic rename, so a crash mid-
        checkpoint leaves the previous generation intact and restorable.
        Raises :class:`~repro.errors.InvalidParameterError` without a
        ``snapshot_dir``; any write failure propagates (the periodic and
        drain-close call sites swallow it into the
        ``checkpoint_failures`` counter instead of killing serving).
        Returns the path actually written.
        """
        if self._chain is None:
            raise InvalidParameterError(
                "checkpoint() requires snapshot_dir at construction"
            )
        written = self._chain.write(self._maintainer, {"streams": self._names})
        self._stats["checkpoints"] += 1
        self._stats["checkpoint_bytes"] = os.path.getsize(written)
        return written

    def _maybe_checkpoint(self, *, final: bool = False) -> None:
        """Checkpoint if due (or at drain-close); failures never raise."""
        if self._chain is None:
            return
        if not final and (
            self._checkpoint_every is None
            or self._stats["windows"] % self._checkpoint_every != 0
            # Nothing mutated since the last successful checkpoint — the
            # window held only rejected/expired/repeat-read traffic, so
            # the file on disk is already current.
            or self._maintainer.generations == self._chain.generations
        ):
            return
        try:
            self.checkpoint()
        except Exception:
            # A failed checkpoint must not take serving down — the
            # previous generation on disk stays valid either way.
            self._stats["checkpoint_failures"] += 1

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start(self) -> "HistogramService":
        """Create the admission queue and the collector task."""
        if self._collector is not None:
            raise InvalidParameterError("service already started")
        self._queue = asyncio.Queue(maxsize=self._config.max_queue)
        self._collector = asyncio.get_running_loop().create_task(
            self._collect(), name="repro-serve-collector"
        )
        self._accepting = True
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop admission, then drain (or abandon) the backlog.

        ``drain=True`` (the default) serves every already-admitted
        request before returning; ``drain=False`` cancels the collector
        and fails pending requests with
        :class:`~repro.errors.ServiceClosedError`.  Idempotent.
        """
        self._accepting = False
        if self._collector is not None:
            if drain:
                await self._queue.put(_STOP)
                await self._collector
                self._maybe_checkpoint(final=True)
            else:
                self._collector.cancel()
                try:
                    await self._collector
                except asyncio.CancelledError:
                    pass
                while not self._queue.empty():
                    entry = self._queue.get_nowait()
                    if entry is _STOP:
                        continue
                    future = entry[1]
                    if not future.done():
                        future.set_exception(
                            ServiceClosedError("service closed before serving")
                        )
            self._collector = None
            self._queue = None

    async def __aenter__(self) -> "HistogramService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -------------------------------------------------------------- #
    # admission
    # -------------------------------------------------------------- #

    async def submit(self, request: Request) -> Response:
        """Admit one request and await its structured response.

        Request-level failures (unknown stream, quiet stream, invalid
        parameters, an already-spent ``deadline_ms`` budget) come back
        as error :class:`Response` objects; *admission*-level failures
        raise — :class:`~repro.errors.OverloadedError` with a
        ``retry_after`` hint when the queue is full,
        :class:`~repro.errors.ServiceClosedError` once shutdown began.

        A request carrying ``deadline_ms`` starts its clock here: the
        budget covers queueing and lingering, and a request that ages
        out before its batch executes resolves to a
        ``deadline_exceeded`` error response (the work is skipped, not
        half-done).
        """
        if not self._accepting or self._queue is None:
            raise ServiceClosedError("service is not accepting requests")
        self._stats["submitted"] += 1
        try:
            # Refused before the cache lookup, on the request alone: a
            # hand-built request the cache or the collector cannot handle
            # must neither raise out of submit nor end the collector.
            try:
                hosted = request.stream in self._index
            except TypeError:  # an unhashable stream name hosts nothing
                hosted = False
            if not hosted:
                raise UnknownStreamError(
                    f"unknown stream {request.stream!r} (service hosts "
                    f"{len(self._index)} streams)"
                )
            if request.op not in OPS:
                raise InvalidParameterError(
                    f"unknown op {request.op!r} (one of {', '.join(OPS)})"
                )
            try:
                hash(request.signature)  # it keys the cache
            except TypeError:
                raise InvalidParameterError(
                    f"{request.op} request parameters must be hashable, got "
                    f"{request.signature!r}"
                ) from None
            if request.op == "selectivity":
                start, stop = request.start, request.stop
                if not (is_integer(start) and is_integer(stop)):
                    raise InvalidParameterError(
                        f"selectivity bounds must be integers, got [{start!r}, {stop!r})"
                    )
                if not 0 <= start < stop <= self._n:
                    raise InvalidParameterError(
                        f"selectivity range [{start}, {stop}) outside the domain [0, {self._n})"
                    )
            budget_ms = request.deadline_ms
            if budget_ms is not None:
                try:
                    valid = bool(np.isfinite(budget_ms)) and budget_ms >= 0
                except (TypeError, ValueError):  # not a number
                    valid = False
                if not valid:
                    raise InvalidParameterError(
                        f"deadline_ms must be finite and >= 0, got {budget_ms!r}"
                    )
        except InvalidParameterError as exc:
            self._stats["served"] += 1
            return error_response(request, exc)
        loop = asyncio.get_running_loop()
        deadline = None
        if request.deadline_ms is not None:
            if request.deadline_ms == 0:
                # The degenerate budget is already spent at admission —
                # and is how tests exercise the deadline path without
                # racing the clock.
                self._stats["served"] += 1
                self._stats["deadline_hits"] += 1
                return error_response(request, self._deadline_error(request))
            deadline = loop.time() + request.deadline_ms / 1e3
        if (
            self._config.cache_capacity
            and request.op in CACHEABLE_OPS
            and not self._pending_mutations.get(request.stream)
        ):
            # Serve a repeat read at admission.  The key carries the
            # stream's generation, so an entry outlives a mutation only
            # as an orphan; the pending-mutation fence above keeps an
            # admitted-but-unexecuted ingest/learn ordered before later
            # reads of its stream, exactly as the batch planner would.
            key = (
                request.stream,
                self._maintainer.generation(self._index[request.stream]),
                request.cache_key,
            )
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._stats["cache_hits"] += 1
                self._stats["served"] += 1
                return cached
            self._stats["cache_misses"] += 1
        future = loop.create_future()
        try:
            self._queue.put_nowait((request, future, deadline))
        except asyncio.QueueFull:
            self._stats["rejected"] += 1
            raise OverloadedError(
                f"admission queue full ({self._config.max_queue} requests)",
                retry_after=self._config.retry_after_s,
            ) from None
        if request.mutates:
            # Fence the stream until this mutation resolves (served,
            # expired, or failed — the done callback runs either way).
            stream = request.stream
            self._pending_mutations[stream] = (
                self._pending_mutations.get(stream, 0) + 1
            )
            future.add_done_callback(lambda _f, s=stream: self._release_fence(s))
        return await future

    def _release_fence(self, stream: str) -> None:
        remaining = self._pending_mutations.get(stream, 0) - 1
        if remaining > 0:
            self._pending_mutations[stream] = remaining
        else:
            self._pending_mutations.pop(stream, None)

    # -------------------------------------------------------------- #
    # the collector
    # -------------------------------------------------------------- #

    async def _collect(self) -> None:
        """Drain admission windows until the shutdown sentinel arrives."""
        config = self._config
        linger_s = config.max_linger_us / 1e6
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            if entry is _STOP:
                return
            window = [entry]
            stopping = False
            if config.max_batch > 1:
                # Drain synchronously first — already-queued requests
                # join the window for free; only an *empty* queue spends
                # linger budget awaiting stragglers (one wait_for per
                # lull, not per request, so linger measures waiting
                # rather than task-wrapping overhead).
                deadline = loop.time() + linger_s
                while len(window) < config.max_batch:
                    try:
                        entry = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        timeout = deadline - loop.time()
                        if timeout <= 0:
                            break
                        try:
                            entry = await asyncio.wait_for(
                                self._queue.get(), timeout
                            )
                        except asyncio.TimeoutError:
                            break
                    if entry is _STOP:
                        stopping = True
                        break
                    window.append(entry)
            self._serve_window(window)
            self._maybe_checkpoint()
            if stopping:
                return

    @staticmethod
    def _deadline_error(request: Request) -> DeadlineExceededError:
        return DeadlineExceededError(
            f"deadline of {request.deadline_ms:g} ms expired before "
            f"{request.op!r} executed; resubmit with a fresh budget"
        )

    def _expire_overdue(self, window: list) -> list:
        """Resolve aged-out requests; the still-live remainder executes.

        The pre-execution deadline check: a request whose absolute
        deadline passed while it queued or lingered gets a
        ``deadline_exceeded`` error response and never reaches a fleet
        op — its work is skipped entirely, which is the only
        deadline semantics compatible with batched execution.
        """
        now = asyncio.get_running_loop().time()
        live = []
        for entry in window:
            request, future, deadline = entry
            if deadline is not None and now >= deadline:
                self._stats["deadline_hits"] += 1
                self._stats["served"] += 1
                if not future.done():  # pragma: no branch - submit awaits it
                    future.set_result(
                        error_response(request, self._deadline_error(request))
                    )
            else:
                live.append(entry)
        return live

    def _serve_window(self, window: list) -> None:
        """Partition one admission window and execute its batches."""
        self._stats["windows"] += 1
        window = self._expire_overdue(window)
        for batch in self._plan_batches(window):
            self._stats["batches"] += 1
            size = len(batch)
            self._stats["largest_batch"] = max(self._stats["largest_batch"], size)
            if size > 1:
                self._stats["coalesced"] += size
            self._execute_batch(batch)
            self._stats["served"] += size

    @staticmethod
    def _plan_batches(window: list) -> "list[list]":
        """Split a window into hazard-safe same-signature batches.

        Repeatedly takes the window's oldest unserved request and
        gathers every later request with the *same signature*, skipping
        over foreign-signature requests only for streams that have not
        been blocked.  A request with a different signature blocks its
        stream for the rest of the pass: same-stream requests never
        reorder across it, so each executed batch is a permutation of
        the admission order that preserves every stream's own request
        sequence — which, with per-member generators, is exactly the
        invariance the byte-identity contract needs.
        """
        batches = []
        remaining = window
        while remaining:
            signature = remaining[0][0].signature
            batch = []
            blocked: set[str] = set()
            rest = []
            for entry in remaining:
                request = entry[0]
                if request.signature == signature and request.stream not in blocked:
                    batch.append(entry)
                else:
                    blocked.add(request.stream)
                    rest.append(entry)
            batches.append(batch)
            remaining = rest
        return batches

    # -------------------------------------------------------------- #
    # batch execution
    # -------------------------------------------------------------- #

    def _execute_batch(self, batch: list) -> None:
        """Run one same-signature batch and resolve its futures.

        Per-request pre-checks (readiness, reference resolution) run
        identically for a 32-request batch and a
        singleton, so the request-at-a-time reference emits the same
        structured errors byte for byte.  Library failures of the
        shared fleet op map to one structured error per affected
        request; non-library exceptions propagate to the waiting
        futures unmapped (programming errors should crash loudly).
        """
        op = batch[0][0].op
        try:
            if op == "ingest":
                self._execute_ingest(batch)
            else:
                self._execute_probe(op, batch)
        except ReproError as exc:
            for request, future, _ in batch:
                if not future.done():
                    future.set_result(error_response(request, exc))
        except BaseException as exc:
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            raise

    def _execute_ingest(self, batch: list) -> None:
        """Absorb ingest batches entry by entry, in admission order."""
        for request, future, _ in batch:
            member = self._index[request.stream]
            try:
                self._maintainer.update_many(member, request.values)
            except ReproError as exc:
                future.set_result(error_response(request, exc))
            else:
                future.set_result(
                    Response(
                        ok=True,
                        op="ingest",
                        stream=request.stream,
                        result=len(request.values),
                    )
                )

    def _execute_probe(self, op: str, batch: list) -> None:
        """One fleet-batched probe over the batch's distinct streams."""
        ready = self._maintainer.ready
        pending: list = []  # entries the shared fleet op will answer
        members: list[int] = []  # distinct, first-occurrence order
        seen: dict[str, int] = {}  # stream -> position in `members`
        for request, future, _ in batch:
            member = self._index[request.stream]
            if request.op == "identity" and request.reference not in self._references:
                error = InvalidParameterError(
                    f"unknown identity reference {request.reference!r}; "
                    "register it with register_reference()"
                )
            elif not ready[member]:
                error = EmptyStreamError(
                    f"stream {request.stream!r} has no observations yet; "
                    "ingest() it first"
                )
            else:
                if request.stream not in seen:
                    seen[request.stream] = len(members)
                    members.append(member)
                pending.append((request, future))
                continue
            future.set_result(error_response(request, error))
        if not pending:
            return
        results = self._run_probe(op, batch[0][0], members)
        cacheable = self._config.cache_capacity and op in CACHEABLE_OPS
        for request, future in pending:
            response = Response(
                ok=True,
                op=op,
                stream=request.stream,
                result=results(request, seen[request.stream]),
            )
            if cacheable:
                # Keyed at the *post*-execution generation: the probe
                # itself may have grown pools or compiled sketches, and
                # the response reflects that state.
                key = (
                    request.stream,
                    self._maintainer.generation(self._index[request.stream]),
                    request.cache_key,
                )
                self._cache[key] = response
                self._cache.move_to_end(key)
                while len(self._cache) > self._config.cache_capacity:
                    self._cache.popitem(last=False)
            future.set_result(response)

    def _run_probe(self, op: str, head: Request, members: list[int]):
        """Dispatch one batch op; returns a per-request result reader."""
        maintainer, params = self._maintainer, self._tester_params
        if op == "selectivity":
            histograms = maintainer.histograms_for(members)
            return lambda request, position: float(
                histograms[position].range_mass(Interval(request.start, request.stop))
            )
        if op == "test":
            rows = maintainer.test(
                head.k, head.epsilon, norm=head.norm, params=params, members=members
            )
        elif op == "min_k":
            rows = maintainer.min_k(
                head.epsilon, max_k=head.max_k, norm=head.norm, params=params, members=members
            )
        elif op == "learn":
            rows = maintainer.learn(head.k, head.epsilon, members=members)
        elif op == "uniformity":
            rows = maintainer.uniformity(head.epsilon, params=params, members=members)
        else:  # identity: admission refuses every op outside OPS
            rows = maintainer.identity(
                self._references[head.reference], head.epsilon, params=params, members=members
            )
        return lambda request, position: rows[position]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramService(streams={len(self._names)}, n={self._n}, "
            f"max_batch={self._config.max_batch}, "
            f"served={self._stats['served']})"
        )
