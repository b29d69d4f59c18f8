"""The per-layer ledger: spans recorded around each layer's entry points.

A traced replay installs wrappers at the attributes the callers look up
(a method on its class, or a name in the calling module) and removes them
afterwards; the program itself is not changed.  Every span keeps its
name, start, end, parent and, where one is known, the request id, in
memory until the run writes them out.

A span's *self time* is its duration minus the part its child spans
cover.  Every piece of work on the event loop runs inside some top-level
span (a step of a load generator, ``submit`` or collector coroutine) or
inside the selector wait, so the self times of all layers plus the
loop's idle time should add up to the wall time; ``coverage`` checks
that.

Layers and the entry points billed to them:

* ``bench`` — the load generator's own coroutine steps.
* ``service`` — ``HistogramService`` construction and each synchronous
  step of ``submit`` and of the collector task.
* ``maintainer.ingest`` / ``maintainer.probe`` / ``maintainer.learn`` —
  ``FleetMaintainer.update_many``; ``test``, ``min_k``, ``uniformity``,
  ``identity``, ``histograms_for``; ``learn``.
* ``reservoir`` — ``ReservoirSampler.update_many``.
* ``draws`` — ``SketchBundle._draw``, every pool draw of either family.
* ``compile.tester`` — ``FleetTesterSketches.compile_member``.
* ``compile.learn`` — ``compile_greedy_sketches`` as ``repro.api.fleet``
  and ``repro.api.sketches`` call it.
* ``flatness`` — ``FleetFlatnessOracle.resolve``.
* ``search`` — ``fleet_test_on_sketches`` and ``select_min_k_on_fleet``.
* ``greedy`` — ``lockstep_learn``.
* ``persist.write`` — ``codec.maintainer_state`` and
  ``format.write_snapshot``; ``persist.restore`` — ``format.load_snapshot``
  and ``codec.restore_maintainer``.
"""

from __future__ import annotations

import functools
import os
import selectors
from collections import defaultdict, deque
from time import perf_counter

import repro.api.fleet as api_fleet
import repro.api.sketches as api_sketches
import repro.persist.codec as persist_codec
import repro.persist.format as persist_format
from repro.api.sketches import SketchBundle
from repro.core.flatness import FleetFlatnessOracle, FleetTesterSketches
from repro.serving import HistogramService
from repro.streaming.fleet import FleetMaintainer
from repro.streaming.reservoir import ReservoirSampler

_PROBES = ("test", "min_k", "uniformity", "identity", "histograms_for")


class IdleSelector(selectors.DefaultSelector):
    """The default selector, timing every wait as loop idle time.

    An event loop built on it (``asyncio.SelectorEventLoop(selector)``)
    reports idle time without touching asyncio internals; ``ledger`` is
    set only while a traced replay runs.
    """

    ledger = None

    def select(self, timeout=None):
        ledger = self.ledger
        if ledger is None:
            return super().select(timeout)
        start = perf_counter()
        try:
            return super().select(timeout)
        finally:
            ledger.idle.append((start, perf_counter()))


class _Steps:
    """Await a coroutine, timing each synchronous step as one span."""

    __slots__ = ("_coroutine", "_ledger", "_name", "_rid")

    def __init__(self, coroutine, ledger, name, rid=None):
        self._coroutine = coroutine
        self._ledger = ledger
        self._name = name
        self._rid = rid

    def __await__(self):
        coroutine, ledger, name, rid = (
            self._coroutine, self._ledger, self._name, self._rid
        )
        advance, value = coroutine.send, None
        while True:
            frame = ledger.open(name, rid)
            try:
                yielded = advance(value)
            except StopIteration as stop:
                ledger.close(frame)
                return stop.value
            except BaseException:
                ledger.close(frame)
                raise
            ledger.close(frame)
            try:
                value = yield yielded
                advance = coroutine.send
            except BaseException as exc:  # forwarded into the coroutine
                advance, value = coroutine.throw, exc


class Ledger:
    """Spans, counters and queue waits of one traced replay."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, rid)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.idle: list[tuple[float, float]] = []
        self.queue_waits: list[float] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._pending: defaultdict = defaultdict(deque)  # id(request) -> [admit, start]
        self._batch = None
        self._service = None
        self._members: dict = {}  # stream name -> member index of _service

    # ----------------------------------------------------------- spans

    def open(self, name: str, rid=None) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            if rid is None:
                rid = parent[5]
            parent_id = parent[0]
        else:
            parent_id = None
        frame = [self._next_id, name, perf_counter(), 0.0, parent_id, rid]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        duration = end - frame[2]
        self.self_s[frame[1]] += duration - frame[3]
        self.total_s[frame[1]] += duration
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((frame[0], frame[1], frame[2], end, frame[4], frame[5]))

    def steps(self, coroutine, name: str, rid=None):
        """``coroutine`` with each of its synchronous steps as a span.

        Spans opened inside a step inherit ``rid``, the request id.
        """

        async def stepped():
            return await _Steps(coroutine, self, name, rid)

        return stepped()

    # ---------------------------------------------------- installation

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                frame = self.open(name)
                if before is not None:
                    before(args, kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(frame)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's entry points (undo with :meth:`uninstall`)."""
        count = self.counts

        def add(key, amount=1):
            count[key] += amount

        self._span(HistogramService, "__init__", "service")
        self._patch(HistogramService, "submit", self._traced_submit)
        self._patch(HistogramService, "_collect", self._traced_collect)
        self._patch(HistogramService, "_execute_batch", self._traced_batch)

        self._span(
            FleetMaintainer, "update_many", "maintainer.ingest",
            before=lambda a, k: self._cover([a[1]], "ingest"),
        )
        # The service passes ``members=`` by keyword, except to
        # ``histograms_for``, whose only argument it is.
        for op in _PROBES:
            if op == "histograms_for":
                def before(a, k):
                    self._cover(a[1] if len(a) > 1 else k.get("members"))
            else:
                def before(a, k):
                    self._cover(k.get("members"))
            self._span(FleetMaintainer, op, "maintainer.probe", before=before)
        self._span(
            FleetMaintainer, "learn", "maintainer.learn",
            before=lambda a, k: self._cover(k.get("members")),
        )

        self._span(
            ReservoirSampler, "update_many", "reservoir",
            after=lambda a, k, r: add("reservoir.items", len(a[1])),
        )
        self._span(
            SketchBundle, "_draw", "draws",
            after=lambda a, k, r: add("draws.samples", int(a[1])),
        )
        self._span(
            FleetTesterSketches, "compile_member", "compile.tester",
            after=lambda a, k, r: add("compile.tester_members"),
        )
        self._span(api_fleet, "compile_greedy_sketches", "compile.learn")
        self._span(api_sketches, "compile_greedy_sketches", "compile.learn")
        self._span(
            FleetFlatnessOracle, "resolve", "flatness",
            after=lambda a, k, r: (
                add("flatness.resolve_calls"), add("flatness.misses", len(r))
            ),
        )
        self._span(
            FleetFlatnessOracle, "flush_hits", "flatness",
            after=lambda a, k, r: add("flatness.hits", sum(a[2])),
        )
        self._span(api_fleet, "fleet_test_on_sketches", "search")
        self._span(api_fleet, "select_min_k_on_fleet", "search")
        self._span(
            api_fleet, "lockstep_learn", "greedy",
            after=lambda a, k, r: (
                add("greedy.runs", len(r)),
                add("greedy.rounds", sum(len(result.rounds) for result in r)),
            ),
        )
        self._span(persist_codec, "maintainer_state", "persist.write")
        self._span(
            persist_format, "write_snapshot", "persist.write",
            after=lambda a, k, r: (
                add("persist.checkpoints"),
                add("persist.write_bytes", os.path.getsize(a[0])),
            ),
        )
        self._span(
            persist_format, "load_snapshot", "persist.restore",
            after=lambda a, k, r: add("persist.restore_bytes", os.path.getsize(a[0])),
        )
        self._span(persist_codec, "restore_maintainer", "persist.restore")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------- service entry points

    def _traced_submit(self, original):
        pending = self._pending

        async def submit(service, request):
            record = [perf_counter(), None]
            waiting = pending[id(request)]
            waiting.append(record)
            try:
                return await _Steps(original(service, request), self, "service")
            finally:
                waiting.remove(record)
                if not waiting:
                    del pending[id(request)]
                if record[1] is not None:
                    self.queue_waits.append(record[1] - record[0])

        return submit

    def _traced_collect(self, original):
        async def collect(service):
            return await _Steps(original(service), self, "service")

        return collect

    def _traced_batch(self, original):
        def execute_batch(service, batch):
            if self._service is not service:
                self._service = service
                self._members = {name: f for f, name in enumerate(service.streams)}
            self._batch = batch
            try:
                return original(service, batch)
            finally:
                self._batch = None

        return execute_batch

    def _cover(self, members, op=None) -> None:
        """Mark the batch's requests a maintainer call starts serving.

        A request's queue wait runs from admission to the start of the
        first maintainer call whose members include its stream: an
        ingest is served by its own ``update_many`` call (``op`` set,
        one member), a probe or learn by the batch's one fleet call.
        """
        batch = self._batch
        if batch is None:
            return
        now = perf_counter()
        index = self._members
        covered = None if members is None else set(members)
        for entry in batch:
            request = entry[0]
            if op is not None and request.op != op:
                continue
            if covered is not None and index.get(request.stream) not in covered:
                continue
            for record in self._pending.get(id(request), ()):
                if record[1] is None:
                    record[1] = now
                    break
            else:
                continue
            if op is not None:
                return

    # --------------------------------------------------------- results

    def coverage_gaps(self, start: float, end: float, top: int = 3):
        """The largest intervals no top-level span or idle wait covers."""
        covered = sorted(
            [(s[2], s[3], s[1]) for s in self.spans if s[4] is None]
            + [(a, b, "idle") for a, b in self.idle]
        )
        gaps = []
        cursor, before = start, "start"
        for a, b, name in covered:
            if a > cursor:
                gaps.append((a - cursor, cursor - start, before, name))
            if b > cursor:
                cursor, before = b, name
        if end > cursor:
            gaps.append((end - cursor, cursor - start, before, "end"))
        return sorted(gaps, reverse=True)[:top]

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\trequest\n")
            for span_id, name, start, end, parent, rid in self.spans:
                handle.write(
                    f"{span_id}\t{name}\t{start!r}\t{end!r}\t"
                    f"{'' if parent is None else parent}\t{'' if rid is None else rid}\n"
                )
            for start, end in self.idle:
                handle.write(f"\tidle\t{start!r}\t{end!r}\t\t\n")
