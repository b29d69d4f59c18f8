"""Sample pools and the sketches built on them, one bundle per fleet member.

The paper's algorithms consume two *sketch families*:

* the **learn family** — one weight sample plus ``r`` collision sets,
  compiled into prefix arrays over a candidate grid (Algorithm 1);
* the **test family** — ``r`` plain sample sets compiled straight into
  a :class:`~repro.core.flatness.CompiledTesterSketches` layout
  (Algorithm 2 and the min-k search) by the fleet that owns the bundle
  (:meth:`~repro.core.flatness.FleetTesterSketches.compile_member`),
  which also owns that compile.

:class:`SketchBundle` owns one growable pool of raw samples per set and
memoises the learn compiles and probe sketches over them; it holds no
tester compile.  A batch of ``(k, epsilon)`` operations issues at most
one draw event per family and member, and an operation
whose sizes fit the existing pools issues none.  Each pool is a
capacity-doubling buffer with a length cursor (:class:`_GrowablePool`),
so repeated budget bumps append in amortised O(1) per element; every
consumer receives read-only views, never copies.

**Family draws.**  The ``r`` sets a family lacks come from one
``_draw``, which calls the source's ``sample_sets`` when it has one
(:func:`repro.api.source.draw_sets`).  A reservoir cuts them from one
permutation of the slots it holds, so they share no slot while
``r x set_size`` fits in it: drawn with replacement, a slot drawn twice
would count as a collision and bias every pair rate.  A distribution's
``sample_sets`` is ``r`` ``sample()`` calls, and an array source gets the
same calls, so an i.i.d. family is ``r`` consecutive ``sample()`` calls.

**Growth.**  Pools only ever grow, and a consumer reads the first ``m``
elements of each set as its size-``m`` draw: a prefix of an i.i.d. set
is i.i.d., and prefixes of disjoint cuts stay disjoint.  An i.i.d.
source's sets grow by their missing suffix.  A reservoir's family
(``disjoint_sets``) cannot append to a set cut from a permutation, so a
family that must grow is redrawn whole at the covering size, and the
sketches built over the old sets are dropped with it: the learn
compiles and probe sketches here, and the fleet's tester compiles
through :attr:`SketchBundle.tester_epoch`.  Serving never grows a
family: the maintainer's budgets are fixed.

Draw order is fixed — a learn-family fill from empty performs the same
``sample()`` calls in the same order as
:func:`repro.core.greedy.draw_greedy_samples` on an i.i.d. source, and a
test-family fill from empty draws ``num_sets`` consecutive sets of
``set_size`` — which is what makes a fresh session's first sampling
operation seed-for-seed the paper's draw-then-run composition
(subsequent fills share the generator, so they are equivalent draws but
not byte-replays of a fresh session's).
"""

from __future__ import annotations

import numpy as np

from repro.api.source import draw_sets
from repro.core.greedy import (
    CompiledGreedySketches,
    GreedySamples,
    compile_greedy_sketches,
)
from repro.core.params import GreedyParams, TesterParams
from repro.errors import InvalidParameterError
from repro.samples.collision import CollisionSketch

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

    def __init__(self, values: np.ndarray | None = None) -> None:
        # Seeded with ``values`` (a family draw's set, or a restored
        # read-only mapping), the pool serves views of that array until it
        # grows: capacity equals length, so growth copies into a fresh
        # writable buffer first and never writes ``values``.
        if values is None:
            values = np.empty(0, dtype=np.int64)
        self._buffer = np.ascontiguousarray(values, dtype=np.int64)
        self._length = int(self._buffer.shape[0])

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


def _short(pools: "list[_GrowablePool]", num_sets: int, set_size: int) -> bool:
    """Whether a family lacks sets, or its first ``num_sets`` lack samples."""
    return len(pools) < num_sets or any(
        pool.length < set_size for pool in pools[:num_sets]
    )


class SketchBundle:
    """Sample pools plus the sketches built on them, for one member's calls.

    Parameters
    ----------
    source:
        A :class:`repro.api.SampleSource`.
    n:
        Domain size.
    rng:
        The generator every pool draw consumes (the member's own).
    """

    def __init__(self, source: object, n: int, rng: np.random.Generator) -> None:
        self._source = source
        self._disjoint_sets = bool(getattr(source, "disjoint_sets", False))
        self._n = int(n)
        self._rng = rng
        self._weight_pool = _GrowablePool()
        self._collision_pool: list[_GrowablePool] = []
        self._tester_pool: list[_GrowablePool] = []
        self._probe_cache: dict[
            tuple[int, int, int], tuple[CollisionSketch, np.ndarray]
        ] = {}
        self._compiled_cache: dict[tuple, CompiledGreedySketches] = {}
        self.draw_events = {_LEARN: 0, _TEST: 0}
        self.samples_drawn = 0
        #: Mutation epoch: bumped whenever retained state changes — pool
        #: growth, a learn compile, the fleet's tester compile over this
        #: bundle's sets, invalidation, or a restore (which invalidates
        #: first).  Consumers key caches and differential checkpoints on
        #: it; equality of generations means the member's retained state
        #: is byte-identical.
        self.generation = 0
        #: Test-family epoch: bumped whenever the tester sets are dropped
        #: (invalidation, or a redraw to grow them).  The fleet records it
        #: with each tester compile and recompiles a slot whose record
        #: no longer matches.
        self.tester_epoch = 0

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    def invalidate(self) -> None:
        """Drop every pool and cache, and move :attr:`tester_epoch` (the
        source's contents changed)."""
        self._weight_pool = _GrowablePool()
        self._collision_pool = []
        self._tester_pool = []
        self._probe_cache = {}
        self._compiled_cache = {}
        self.generation += 1
        self.tester_epoch += 1

    # -------------------------------------------------------------- #
    # pool growth
    # -------------------------------------------------------------- #

    def _draw(self, size: int, num_sets: int | None = None):
        """One draw of ``size`` samples in all.

        Without ``num_sets`` it is one ``sample(size)`` call.  With it,
        it is a family: ``num_sets`` sets of ``size // num_sets``, drawn
        by :func:`repro.api.source.draw_sets`, so a reservoir cuts them
        from one permutation.  ``size`` stays the first positional
        argument: ``perfbench/ledger.py`` reads it as the draw's count.
        """
        self.samples_drawn += int(size)
        if num_sets is None:
            return np.asarray(self._source.sample(size, self._rng))
        return draw_sets(self._source, num_sets, size // num_sets, self._rng)

    def _grow_family(
        self, pools: "list[_GrowablePool]", num_sets: int, set_size: int
    ) -> bool:
        """Grow a short family in place to ``num_sets`` x ``set_size``.

        Only the sets the call will slice are extended, each by its
        missing suffix; the sets it lacks come from one family draw.  A
        source with ``disjoint_sets`` cannot append to a set cut from a
        permutation, so its family is redrawn whole at the covering
        size instead.  Returns whether that happened: every sketch built
        over the old sets is then stale.
        """
        redraw = bool(pools) and self._disjoint_sets
        if redraw:
            num_sets = max(num_sets, len(pools))
            set_size = max(set_size, max(pool.length for pool in pools))
            pools.clear()
        for pool in pools[:num_sets]:
            pool.fill_to(set_size, self._draw)
        missing = num_sets - len(pools)
        if missing > 0:
            pools.extend(
                _GrowablePool(values)
                for values in self._draw(missing * set_size, missing)
            )
        return redraw

    def ensure_learn_pool(self, params: GreedyParams) -> None:
        """Grow the learn-family pools to cover ``params``' sizes."""
        short = _short(
            self._collision_pool, params.collision_sets, params.collision_set_size
        )
        if not short and self._weight_pool.length >= params.weight_sample_size:
            return
        self.draw_events[_LEARN] += 1
        self.generation += 1
        self._weight_pool.fill_to(params.weight_sample_size, self._draw)
        if short and self._grow_family(
            self._collision_pool, params.collision_sets, params.collision_set_size
        ):
            self._compiled_cache = {}

    def ensure_tester_pool(self, params: TesterParams) -> None:
        """Grow the test-family pool to cover ``params``' sizes."""
        if not _short(self._tester_pool, params.num_sets, params.set_size):
            return
        self.draw_events[_TEST] += 1
        self.generation += 1
        if self._grow_family(self._tester_pool, params.num_sets, params.set_size):
            self.tester_epoch += 1
            self._probe_cache = {}

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

        Grows the pool if needed.  Every consumer of the test family
        reads these views — the fleet's member compile and
        :meth:`probe_sketch` — so all of them see the same samples.
        """
        self.ensure_tester_pool(params)
        return [
            pool.view(params.set_size)
            for pool in self._tester_pool[: params.num_sets]
        ]

    def probe_sketch(
        self, params: TesterParams, num_sets: int
    ) -> tuple[CollisionSketch, np.ndarray]:
        """One sorted sketch over the first ``num_sets`` tester sets.

        Uniformity and identity are whole-domain statistics: they read
        one :class:`~repro.samples.collision.CollisionSketch` over the
        union of the first ``num_sets`` sets of :meth:`tester_sets`, and
        identity the union's samples too; both come back.  The caller
        picks ``num_sets`` so that the union counts no slot twice (the
        sets a reservoir cut from one permutation).  Built once per
        budget and count, and dropped with the pools.
        """
        key = (params.num_sets, params.set_size, num_sets)
        probe = self._probe_cache.get(key)
        if probe is None:
            samples = np.concatenate(self.tester_sets(params)[:num_sets])
            probe = (CollisionSketch(samples, self._n), samples)
            self._probe_cache[key] = probe
        return probe
