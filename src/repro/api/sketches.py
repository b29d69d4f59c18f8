"""Shared sample pools and compiled-sketch caches for sessions.

The paper's algorithms consume two *sketch families*:

* the **learn family** — one weight sample plus ``r`` collision sets,
  compiled into prefix arrays over a candidate grid (Algorithm 1);
* the **test family** — ``r`` plain sample sets combined into a
  :class:`~repro.samples.estimators.MultiSketch` and compiled into a
  :class:`~repro.core.flatness.CompiledTesterSketches` gather layout
  (Algorithm 2 and the min-k search).

:class:`SketchBundle` owns one growable pool of raw samples per family
and memoises the derived structures.  Pools only ever grow (i.i.d. draws
are exchangeable, so the first ``m`` elements of a larger pool are a
valid size-``m`` draw), which gives the session its central guarantee:
a batch of ``(k, epsilon)`` operations issues at most one draw per
family, and an operation whose sizes fit the existing pool issues none.
Each pool is a capacity-doubling buffer with a length cursor
(:class:`_GrowablePool`), so repeated budget bumps append in amortised
O(1) per element; every consumer receives read-only views, never copies.

Draw order is chosen to match the one-shot entry points exactly — a
learn-family fill from empty performs the same ``sample()`` calls in the
same order as :func:`repro.core.greedy.draw_greedy_samples`, and a
test-family fill from empty matches
:func:`repro.core.tester.draw_tester_sets` — which is what makes a fresh
session's first sampling operation seed-for-seed identical to the
corresponding legacy function (subsequent fills share the generator, so
they are equivalent draws but not byte-replays of a legacy call).
"""

from __future__ import annotations

import numpy as np

from repro.core.flatness import CompiledTesterSketches, compile_tester_sketches
from repro.core.greedy import (
    CompiledGreedySketches,
    GreedySamples,
    compile_greedy_sketches,
)
from repro.core.params import GreedyParams, TesterParams
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch

_LEARN = "learn"
_TEST = "test"


class _GrowablePool:
    """A capacity-doubling sample buffer with a length cursor.

    ``fill_to`` draws only the missing suffix and appends it in place;
    the backing buffer doubles when exhausted, so a sequence of budget
    bumps costs amortised O(1) per element instead of a full
    reallocate-and-copy per bump.  ``view`` returns a read-only O(1)
    slice — never a copy — so derived sketches keep holding views.
    """

    __slots__ = ("_buffer", "_length")

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.int64)
        self._length = 0

    @property
    def length(self) -> int:
        """Number of samples currently in the pool."""
        return self._length

    @property
    def capacity(self) -> int:
        """Allocated buffer size (>= ``length``)."""
        return int(self._buffer.shape[0])

    def fill_to(self, size: int, draw) -> None:
        """Grow the pool to ``size`` samples, drawing just the deficit."""
        if size <= self._length:
            return
        if size > self._buffer.shape[0]:
            capacity = max(size, 2 * self._buffer.shape[0])
            buffer = np.empty(capacity, dtype=np.int64)
            buffer[: self._length] = self._buffer[: self._length]
            self._buffer = buffer
        self._buffer[self._length : size] = np.asarray(
            draw(size - self._length), dtype=np.int64
        )
        self._length = size

    def view(self, size: int) -> np.ndarray:
        """Read-only view of the first ``size`` pooled samples."""
        if size > self._length:
            raise InvalidParameterError(
                f"pool holds {self._length} samples, cannot view {size}"
            )
        view = self._buffer[:size]
        view.flags.writeable = False
        return view


class SketchBundle:
    """Sample pools plus compiled sketches, shared across session calls.

    Parameters
    ----------
    source:
        A :class:`repro.api.SampleSource`.
    n:
        Domain size.
    rng:
        The generator every pool draw consumes (owned by the session).
    """

    def __init__(self, source: object, n: int, rng: np.random.Generator) -> None:
        self._source = source
        self._n = int(n)
        self._rng = rng
        self._weight_pool = _GrowablePool()
        self._collision_pool: list[_GrowablePool] = []
        self._tester_pool: list[_GrowablePool] = []
        self._multi_cache: dict[tuple[int, int], MultiSketch] = {}
        self._compiled_cache: dict[tuple, CompiledGreedySketches] = {}
        self._tester_compiled_cache: dict[
            tuple[int, int], CompiledTesterSketches
        ] = {}
        self.draw_events = {_LEARN: 0, _TEST: 0}
        self.samples_drawn = 0
        #: Mutation epoch: bumped whenever retained state changes — pool
        #: growth, a compiled-cache insert or plant, invalidation, or a
        #: restore (which invalidates first).  Consumers key caches and
        #: differential checkpoints on it; equality of generations means
        #: the bundle's retained state is byte-identical.
        self.generation = 0

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    def invalidate(self) -> None:
        """Drop every pool and cache (the source's contents changed)."""
        self._weight_pool = _GrowablePool()
        self._collision_pool = []
        self._tester_pool = []
        self._multi_cache = {}
        self._compiled_cache = {}
        self._tester_compiled_cache = {}
        self.generation += 1

    # -------------------------------------------------------------- #
    # pool growth
    # -------------------------------------------------------------- #

    def _draw(self, size: int) -> np.ndarray:
        self.samples_drawn += int(size)
        return np.asarray(self._source.sample(size, self._rng))

    def ensure_learn_pool(self, params: GreedyParams) -> None:
        """Grow the learn-family pools to cover ``params``' sizes."""
        grew = (
            self._weight_pool.length < params.weight_sample_size
            or len(self._collision_pool) < params.collision_sets
            or any(
                pool.length < params.collision_set_size
                for pool in self._collision_pool[: params.collision_sets]
            )
        )
        if not grew:
            return
        self.draw_events[_LEARN] += 1
        self.generation += 1
        self._weight_pool.fill_to(params.weight_sample_size, self._draw)
        # Only the sets this call will slice are extended; any further
        # pooled sets keep their size until a request actually needs them.
        for pool in self._collision_pool[: params.collision_sets]:
            pool.fill_to(params.collision_set_size, self._draw)
        while len(self._collision_pool) < params.collision_sets:
            pool = _GrowablePool()
            pool.fill_to(params.collision_set_size, self._draw)
            self._collision_pool.append(pool)

    def ensure_tester_pool(self, params: TesterParams) -> None:
        """Grow the test-family pool to cover ``params``' sizes."""
        grew = len(self._tester_pool) < params.num_sets or any(
            pool.length < params.set_size
            for pool in self._tester_pool[: params.num_sets]
        )
        if not grew:
            return
        self.draw_events[_TEST] += 1
        self.generation += 1
        for pool in self._tester_pool[: params.num_sets]:
            pool.fill_to(params.set_size, self._draw)
        while len(self._tester_pool) < params.num_sets:
            pool = _GrowablePool()
            pool.fill_to(params.set_size, self._draw)
            self._tester_pool.append(pool)

    # -------------------------------------------------------------- #
    # derived structures
    # -------------------------------------------------------------- #

    def learn_samples(self, params: GreedyParams) -> GreedySamples:
        """The learn-family draw of exactly ``params``' sizes (pool views)."""
        self.ensure_learn_pool(params)
        return GreedySamples(
            self._weight_pool.view(params.weight_sample_size),
            tuple(
                pool.view(params.collision_set_size)
                for pool in self._collision_pool[: params.collision_sets]
            ),
        )

    def compiled_sketches(
        self,
        params: GreedyParams,
        *,
        method: str,
        max_candidates: int | None = None,
    ) -> tuple[GreedySamples, CompiledGreedySketches]:
        """Samples plus compiled prefixes for one learn configuration.

        Compilation is memoised on the sizes actually consumed — a grid of
        ``(k, epsilon)`` points sharing one budget compiles once and then
        only re-runs the (cheap) greedy rounds.  The cached value carries
        the round-invariant per-candidate self-cost vector (median of the
        ``r`` collision estimates included), so repeat learns skip the
        engine's single most expensive pass entirely.
        """
        samples = self.learn_samples(params)
        key = (
            method,
            max_candidates,
            params.weight_sample_size,
            params.collision_sets,
            params.collision_set_size,
        )
        compiled = self._compiled_cache.get(key)
        if compiled is None:
            compiled = compile_greedy_sketches(
                samples,
                self._n,
                method=method,
                max_candidates=max_candidates,
                rng=self._rng,
            )
            self._compiled_cache[key] = compiled
            self.generation += 1
        return samples, compiled

    def tester_sets(self, params: TesterParams) -> "list[np.ndarray]":
        """The raw test-family draw of exactly ``params``' sizes (pool views).

        Grows the pool if needed; the views are what both
        :meth:`multi_sketch` and the fleet compiler consume, so the two
        paths are guaranteed to sketch the same samples.
        """
        self.ensure_tester_pool(params)
        return [
            pool.view(params.set_size)
            for pool in self._tester_pool[: params.num_sets]
        ]

    def multi_sketch(self, params: TesterParams) -> MultiSketch:
        """The test-family :class:`MultiSketch` for ``params``' sizes.

        Memoised per ``(num_sets, set_size)``: every tester or min-k call
        sharing one budget reuses both the raw draw and the built
        sketches.
        """
        key = (params.num_sets, params.set_size)
        multi = self._multi_cache.get(key)
        if multi is None:
            multi = MultiSketch.from_sample_sets(self.tester_sets(params), self._n)
            self._multi_cache[key] = multi
        return multi

    def compiled_tester(
        self, params: TesterParams
    ) -> tuple[MultiSketch | None, CompiledTesterSketches]:
        """The test-family compiled gather layout (plus the sketch, if built).

        Memoised per ``(num_sets, set_size)`` alongside
        :meth:`multi_sketch`: a grid of tester or min-k calls sharing one
        budget compiles once, and — because the compiled object carries
        the flatness-verdict memo — later calls start with every verdict
        the earlier ones already established.  Dropped by
        :meth:`invalidate` together with the pools.

        When the compiled object is already cached (or was planted by a
        fleet compiler via :meth:`adopt_compiled_tester`), the raw
        :class:`MultiSketch` is not built just to be returned — the first
        element is then whatever the multi cache holds, possibly
        ``None``.  The compiled engine never needs it; the ``"full"``
        engine asks :meth:`multi_sketch` directly.
        """
        key = (params.num_sets, params.set_size)
        compiled = self._tester_compiled_cache.get(key)
        if compiled is not None:
            return self._multi_cache.get(key), compiled
        multi = self.multi_sketch(params)
        compiled = compile_tester_sketches(multi)
        self._tester_compiled_cache[key] = compiled
        self.generation += 1
        return multi, compiled

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def snapshot(self, path) -> None:
        """Write this bundle's warm state to a snapshot file.

        Persists the sample pools, every compiled greedy/tester cache
        entry (verdict memos and accounting included), the draw
        counters, and the generator state — everything a restored
        bundle needs to answer byte-identically and to continue drawing
        the same stream of samples.  The write is crash-safe (temp file
        + fsync + atomic rename; see :mod:`repro.persist.format`).
        """
        from repro.persist import codec, format as persist_format

        meta, slabs = codec.bundle_state(self)
        persist_format.write_snapshot(path, kind="bundle", meta=meta, slabs=slabs)

    def restore(self, path) -> None:
        """Adopt a snapshot's warm state in place (zero-copy).

        Compiled slabs arrive as read-only ``np.memmap`` views planted
        through the same cache keys :meth:`compiled_sketches` /
        :meth:`compiled_tester` use; pools serve views off the mapped
        file and copy out only if they later grow.  Raises
        :class:`~repro.errors.SnapshotError` on any mismatch (missing
        or corrupt file, wrong domain size) without touching state
        beyond an :meth:`invalidate` — the caller's cold path still
        works.
        """
        from repro.persist import codec, format as persist_format

        snap = persist_format.load_snapshot(path, kind="bundle")
        codec.restore_bundle(self, snap.meta, snap.slab)

    # -------------------------------------------------------------- #
    # fleet plants (precompiled structures adopted into the caches)
    # -------------------------------------------------------------- #

    def adopt_compiled_tester(
        self, params: TesterParams, compiled: CompiledTesterSketches
    ) -> None:
        """Adopt a precompiled tester layout for ``params``' budget.

        The fleet compiler builds per-member gather layouts from the
        pooled samples without per-member sketches; planting them here
        makes every subsequent session call on this budget — tester,
        min-k, or a direct :meth:`compiled_tester` — reuse the planted
        object and its verdict memo, exactly as if the session had
        compiled it itself.  The caller vouches that ``compiled`` was
        built over :meth:`tester_sets` of the same ``params``.
        """
        if (
            compiled.n != self._n
            or compiled.num_sets != params.num_sets
            or compiled.set_size != params.set_size
        ):
            raise InvalidParameterError(
                "compiled tester layout does not match the bundle's domain "
                "or the params' (num_sets, set_size)"
            )
        self._tester_compiled_cache[(params.num_sets, params.set_size)] = compiled
        self.generation += 1

    def adopt_compiled_sketches(
        self,
        params: GreedyParams,
        *,
        method: str,
        max_candidates: int | None,
        compiled: CompiledGreedySketches,
    ) -> None:
        """Adopt precompiled greedy sketches for one learn configuration.

        Mirrors :meth:`adopt_compiled_tester` for the learn family: the
        key is the one :meth:`compiled_sketches` would use, so a later
        ``learn`` call with the same configuration skips compilation
        entirely.  The caller vouches that ``compiled`` was built over
        :meth:`learn_samples` of the same ``params``.
        """
        key = (
            method,
            max_candidates,
            params.weight_sample_size,
            params.collision_sets,
            params.collision_set_size,
        )
        self._compiled_cache[key] = compiled
        self.generation += 1
