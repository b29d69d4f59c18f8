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

from repro.core.params import GreedyParams, TesterParams
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
from repro.serving.requests import (
    CACHEABLE_OPS,
    OPS,
    Request,
    Response,
    error_response,
)
from repro.streaming.fleet import FleetMaintainer

_STOP = object()

# A delta chain this deep triggers a full "compaction" checkpoint: the
# next write re-writes every slab into ``service.snap`` and prunes the
# delta files, so restore cost and corruption surface stay bounded.
_COMPACT_EVERY = 8


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
        if int(self.max_batch) != self.max_batch or self.max_batch < 1:
            raise InvalidParameterError(
                f"max_batch must be a positive integer, got {self.max_batch!r}"
            )
        if self.max_linger_us < 0:
            raise InvalidParameterError(
                f"max_linger_us must be >= 0, got {self.max_linger_us!r}"
            )
        if int(self.max_queue) != self.max_queue or self.max_queue < 1:
            raise InvalidParameterError(
                f"max_queue must be a positive integer, got {self.max_queue!r}"
            )
        if self.retry_after_s < 0:
            raise InvalidParameterError(
                f"retry_after_s must be >= 0, got {self.retry_after_s!r}"
            )
        if int(self.cache_capacity) != self.cache_capacity or self.cache_capacity < 0:
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
        Directory for warm-start checkpoints (created if missing).  At
        construction the service tries to restore
        ``<snapshot_dir>/service.snap``; success warm-starts the whole
        maintainer tree (:attr:`warm_started` turns true), and *any*
        restore failure — no file yet, corrupt or truncated file, a
        configuration mismatch — records its reason
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
        ``"delta"`` writes differential checkpoints: only slabs whose
        owning member's generation moved since the parent snapshot are
        re-written, unchanged payloads are carried as references into
        the parent file, and every ``_COMPACT_EVERY`` links a full
        compaction snapshot re-bases the chain (pruning the delta
        files).  A delta that cannot be expressed against its parent
        falls back to a full write — self-healing, never an error.
        Requires ``snapshot_dir``.

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
        self._checkpoint_mode = checkpoint_mode
        if checkpoint_every is not None:
            if snapshot_dir is None:
                raise InvalidParameterError(
                    "checkpoint_every requires snapshot_dir"
                )
            if int(checkpoint_every) != checkpoint_every or checkpoint_every < 1:
                raise InvalidParameterError(
                    f"checkpoint_every must be a positive integer, got "
                    f"{checkpoint_every!r}"
                )
            checkpoint_every = int(checkpoint_every)
        self._snapshot_dir = (
            os.fspath(snapshot_dir) if snapshot_dir is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._warm_started = False
        self._restored_from: str | None = None
        self._restore_error: str | None = None
        # Delta-chain state.  ``_chain_parent`` is None until this
        # process writes its first checkpoint (always a full one — a
        # restored process's generation counters are not comparable to
        # the writer's), and ``_checkpoint_generations`` is the
        # per-member watermark the next delta diffs against.
        self._chain_parent: str | None = None
        self._chain_depth = 0
        self._delta_seq = 0
        self._checkpoint_generations: "list[int] | None" = None
        if self._snapshot_dir is not None:
            os.makedirs(self._snapshot_dir, exist_ok=True)
            self._delta_seq = self._scan_delta_seq()
            restore_path = self._latest_checkpoint_path()
            try:
                self._restore(restore_path)
            except SnapshotError as exc:
                # Graceful degradation: a missing, corrupt, truncated,
                # or mismatched snapshot means a cold start, never a
                # crash.  (A partial maintainer restore cannot leak —
                # restore raises before touching state at that layer.)
                self._restore_error = f"{exc.reason}: {exc}"
            else:
                self._warm_started = True
                self._restored_from = restore_path

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
        """Where checkpoints live (``None`` without ``snapshot_dir``)."""
        if self._snapshot_dir is None:
            return None
        return os.path.join(self._snapshot_dir, "service.snap")

    @property
    def warm_started(self) -> bool:
        """Whether construction restored state from a snapshot."""
        return self._warm_started

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
            "warm_started": self._warm_started,
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
        """Write one crash-safe snapshot of the whole maintainer tree.

        The write is temp-file + fsync + atomic rename, so a crash mid-
        checkpoint leaves the previous generation intact and restorable.
        In ``checkpoint_mode="delta"`` (with an in-process parent and a
        chain shorter than ``_COMPACT_EVERY``) only slabs whose owning
        member's generation moved since the parent are re-written; the
        rest ride as references into the parent file.  A delta that
        cannot be expressed (parent dropped a referenced slab) falls
        back to a full compaction write.  Raises
        :class:`~repro.errors.InvalidParameterError` without a
        ``snapshot_dir``; any write failure propagates (the periodic and
        drain-close call sites swallow it into the
        ``checkpoint_failures`` counter instead of killing serving).
        Returns the path actually written.
        """
        path = self.snapshot_path
        if path is None:
            raise InvalidParameterError(
                "checkpoint() requires snapshot_dir at construction"
            )
        from repro.persist import codec, format as persist_format

        maintainer_meta, slabs = codec.maintainer_state(self._maintainer)
        meta = {"streams": list(self._names), "maintainer": maintainer_meta}
        generations = self._maintainer.generations
        written: str | None = None
        if (
            self._checkpoint_mode == "delta"
            and self._chain_parent is not None
            and self._checkpoint_generations is not None
            and self._chain_depth < _COMPACT_EVERY
        ):
            changed = {
                f
                for f, (old, new) in enumerate(
                    zip(self._checkpoint_generations, generations)
                )
                if old != new
            }
            delta_slabs = {}
            unchanged = []
            for name, slab in slabs.items():
                owner = codec.slab_member(name)
                if owner is None or owner in changed:
                    delta_slabs[name] = slab
                else:
                    unchanged.append(name)
            delta_path = os.path.join(
                self._snapshot_dir, f"service-delta-{self._delta_seq + 1:06d}.snap"
            )
            try:
                persist_format.write_snapshot(
                    delta_path,
                    kind="service",
                    meta=meta,
                    slabs=delta_slabs,
                    parent=self._chain_parent,
                    unchanged=unchanged,
                )
            except SnapshotError:
                # The parent cannot back this delta (e.g. a referenced
                # slab vanished from its manifest) — self-heal by
                # compacting to a full snapshot below.
                pass
            else:
                written = delta_path
                self._delta_seq += 1
                self._chain_parent = delta_path
                self._chain_depth += 1
        if written is None:
            persist_format.write_snapshot(path, kind="service", meta=meta, slabs=slabs)
            written = path
            self._chain_parent = path
            self._chain_depth = 0
            self._prune_deltas()
        self._checkpoint_generations = generations
        self._stats["checkpoints"] += 1
        self._stats["checkpoint_bytes"] = os.path.getsize(written)
        return written

    def _scan_delta_seq(self) -> int:
        """Highest delta sequence number present in the snapshot dir."""
        highest = 0
        for name in os.listdir(self._snapshot_dir):
            if name.startswith("service-delta-") and name.endswith(".snap"):
                try:
                    seq = int(name[len("service-delta-") : -len(".snap")])
                except ValueError:
                    continue
                highest = max(highest, seq)
        return highest

    def _latest_checkpoint_path(self) -> str:
        """The newest checkpoint on disk: the max-seq delta, else the full."""
        if self._delta_seq > 0:
            candidate = os.path.join(
                self._snapshot_dir, f"service-delta-{self._delta_seq:06d}.snap"
            )
            if os.path.exists(candidate):
                return candidate
        return self.snapshot_path

    def _prune_deltas(self) -> None:
        """Drop superseded delta files after a full compaction write."""
        for name in os.listdir(self._snapshot_dir):
            if name.startswith("service-delta-") and name.endswith(".snap"):
                try:
                    os.unlink(os.path.join(self._snapshot_dir, name))
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        self._delta_seq = 0

    def _restore(self, path: str) -> None:
        """Warm-start the maintainer tree from ``path`` (or raise)."""
        from repro.persist import codec, format as persist_format

        snap = persist_format.load_snapshot(path, kind="service")
        streams = snap.meta.get("streams")
        if streams != list(self._names):
            raise SnapshotError(
                f"snapshot {path!r} hosts streams {streams!r}, the service "
                f"hosts {list(self._names)!r}",
                reason="config-mismatch",
            )
        codec.restore_maintainer(self._maintainer, snap.meta["maintainer"], snap.slab)

    def _maybe_checkpoint(self, *, final: bool = False) -> None:
        """Checkpoint if due (or at drain-close); failures never raise."""
        if self._snapshot_dir is None:
            return
        if not final:
            if self._checkpoint_every is None:
                return
            if self._stats["windows"] % self._checkpoint_every != 0:
                return
            if (
                self._checkpoint_generations is not None
                and self._maintainer.generations == self._checkpoint_generations
            ):
                # Nothing mutated since the last successful checkpoint —
                # the window held only rejected/expired/repeat-read
                # traffic, so the file on disk is already current.
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
        if request.stream not in self._index:
            self._stats["served"] += 1
            return error_response(
                request,
                UnknownStreamError(
                    f"unknown stream {request.stream!r} (service hosts "
                    f"{len(self._index)} streams)"
                ),
            )
        if request.op not in OPS:
            # Rejected at admission: a hand-built Request with a bogus
            # op must not reach the coalescer (signature would raise
            # mid-window and strand the rest of the backlog).
            self._stats["served"] += 1
            return error_response(
                request,
                InvalidParameterError(
                    f"unknown op {request.op!r} (one of {', '.join(OPS)})"
                ),
            )
        loop = asyncio.get_running_loop()
        deadline = None
        if request.deadline_ms is not None:
            budget_ms = request.deadline_ms
            if not np.isfinite(budget_ms) or budget_ms < 0:
                self._stats["served"] += 1
                return error_response(
                    request,
                    InvalidParameterError(
                        f"deadline_ms must be finite and >= 0, got {budget_ms!r}"
                    ),
                )
            if budget_ms == 0:
                # The degenerate budget is already spent at admission —
                # and is how tests exercise the deadline path without
                # racing the clock.
                self._stats["served"] += 1
                self._stats["deadline_hits"] += 1
                return error_response(request, self._deadline_error(request))
            deadline = loop.time() + budget_ms / 1e3
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

        Per-request pre-checks (readiness, reference resolution, range
        validation) run identically for a 32-request batch and a
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
        head = batch[0][0]
        for request, future, _ in batch:
            if request.op == "identity" and request.reference not in self._references:
                future.set_result(
                    error_response(
                        request,
                        InvalidParameterError(
                            f"unknown identity reference {request.reference!r}; "
                            "register it with register_reference()"
                        ),
                    )
                )
                continue
            if request.op == "selectivity" and not (
                0 <= request.start < request.stop <= self._n
            ):
                future.set_result(
                    error_response(
                        request,
                        InvalidParameterError(
                            f"selectivity range [{request.start}, {request.stop}) "
                            f"outside the domain [0, {self._n})"
                        ),
                    )
                )
                continue
            member = self._index[request.stream]
            if not ready[member]:
                future.set_result(
                    error_response(
                        request,
                        EmptyStreamError(
                            f"stream {request.stream!r} has no observations yet; "
                            "ingest() it first"
                        ),
                    )
                )
                continue
            if request.stream not in seen:
                seen[request.stream] = len(members)
                members.append(member)
            pending.append((request, future))
        if not pending:
            return
        results = self._run_probe(op, head, members)
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
        maintainer = self._maintainer
        if op == "test":
            rows = maintainer.test(
                head.k,
                head.epsilon,
                norm=head.norm,
                params=self._tester_params,
                members=members,
            )
            return lambda request, position: rows[position]
        if op == "min_k":
            rows = maintainer.min_k(
                head.epsilon,
                max_k=head.max_k,
                norm=head.norm,
                params=self._tester_params,
                members=members,
            )
            return lambda request, position: rows[position]
        if op == "learn":
            rows = maintainer.learn(head.k, head.epsilon, members=members)
            return lambda request, position: rows[position]
        if op == "uniformity":
            rows = maintainer.uniformity(
                head.epsilon, params=self._tester_params, members=members
            )
            return lambda request, position: rows[position]
        if op == "identity":
            rows = maintainer.identity(
                self._references[head.reference],
                head.epsilon,
                params=self._tester_params,
                members=members,
            )
            return lambda request, position: rows[position]
        if op == "selectivity":
            histograms = maintainer.histograms_for(members)
            return lambda request, position: float(
                histograms[position].range_mass(
                    Interval(request.start, request.stop)
                )
            )
        raise InvalidParameterError(f"unknown op {op!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramService(streams={len(self._names)}, n={self._n}, "
            f"max_batch={self._config.max_batch}, "
            f"served={self._stats['served']})"
        )
