"""Maintain a near-v-optimal histogram over a stream.

Combines the reservoir sampler with periodic rebuilds by the paper's
fast greedy learner.  Between rebuilds the summary is stale by at most
``refresh_every`` items, which bounds its extra error by the mass of the
unseen suffix; the reservoir keeps rebuild quality independent of the
stream length.

The tester engine choice rides through the facade session:
``tester_engine`` selects the flatness engine used by
:meth:`StreamingHistogramMaintainer.test` /
:meth:`StreamingHistogramMaintainer.min_k`, which probe the reservoir's
current contents for k-histogram structure (e.g. to adapt ``k`` as the
stream drifts).
"""

from __future__ import annotations

import numpy as np

from repro.api.session import HistogramSession
from repro.core.params import GreedyParams, TesterParams
from repro.core.results import TestResult
from repro.core.selection import SelectionResult
from repro.errors import EmptyStreamError, InvalidParameterError
from repro.histograms.tiling import TilingHistogram
from repro.streaming.reservoir import ReservoirSampler
from repro.utils.rng import as_rng


class StreamingHistogramMaintainer:
    """A k-histogram summary of a stream of values from ``[0, n)``.

    Parameters
    ----------
    n:
        Domain size.
    k:
        Histogram budget passed to the greedy learner.
    epsilon:
        Learner accuracy (Theorem 2 semantics at ``scale=1``).
    refresh_every:
        Rebuild the histogram after this many new items (default
        ``4 * reservoir_capacity``, so most reservoir content turns over
        between rebuilds).
    reservoir_capacity:
        Reservoir size (default 4096).
    params:
        Explicit learner sizes; defaults to a budget matched to the
        reservoir (the reservoir cannot support more independent
        information than it holds).
    forget_after_rebuild:
        When ``True`` the reservoir is reset after each rebuild, giving
        sliding-window semantics (the summary reflects roughly the last
        ``refresh_every`` items) — use this for drifting streams.  The
        default ``False`` keeps Algorithm R's whole-stream uniformity.
    tester_engine:
        Flatness engine forwarded to the session for :meth:`test` /
        :meth:`min_k` (``"compiled"`` or ``"full"``).
    executor:
        Optional :class:`repro.api.ParallelExecutor` forwarded to the
        session: the reservoir's pooled draws feed the shard-mergeable
        compile builders directly, so rebuild compiles fan per shard.
        Results stay byte-identical; the caller owns the executor.
    """

    def __init__(
        self,
        n: int,
        k: int,
        epsilon: float = 0.25,
        *,
        refresh_every: int | None = None,
        reservoir_capacity: int = 4096,
        params: GreedyParams | None = None,
        forget_after_rebuild: bool = False,
        tester_engine: str = "compiled",
        rng: "int | None | np.random.Generator" = None,
        executor: "object | None" = None,
    ) -> None:
        if n < 1 or k < 1:
            raise InvalidParameterError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        self._n = int(n)
        self._k = int(k)
        self._epsilon = float(epsilon)
        self._tester_engine = tester_engine
        self._executor = executor
        self._rng = as_rng(rng)
        self._reservoir = ReservoirSampler(reservoir_capacity, self._rng)
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
                collision_set_size=max(budget // 4, 16),
                rounds=max(self._k, 2),
            )
        self._params = params
        self._forget_after_rebuild = bool(forget_after_rebuild)
        self._items_seen = 0
        self._since_rebuild = 0
        self._rebuilds = 0
        self._histogram: TilingHistogram | None = None
        # One facade session for the reservoir; its pools are invalidated
        # lazily (``_sync_session``) whenever the reservoir has absorbed
        # stream items since they were last filled.
        self._stale = False
        self._session = self._make_session()

    def _make_session(self) -> HistogramSession:
        return HistogramSession(
            self._reservoir,
            self._n,
            rng=self._rng,
            method="fast",
            tester_engine=self._tester_engine,
            executor=self._executor,
        )

    def _sync_session(self) -> HistogramSession:
        """The session, with pools dropped if the reservoir has changed."""
        if self._stale:
            self._session.invalidate()
            self._stale = False
        return self._session

    @property
    def items_seen(self) -> int:
        """Total stream items observed."""
        return self._items_seen

    @property
    def rebuilds(self) -> int:
        """How many greedy rebuilds have run."""
        return self._rebuilds

    @property
    def histogram(self) -> TilingHistogram:
        """The current summary (rebuilding lazily if needed)."""
        if self._histogram is None or self._since_rebuild >= self._refresh_every:
            self._rebuild()
        if self._histogram is None:
            raise EmptyStreamError("no stream items observed yet; update() first")
        return self._histogram

    def update(self, value: int) -> None:
        """Observe one stream item.

        ``value`` must be a Python or NumPy integer: like a float batch
        in :meth:`update_many`, a float is refused before the reservoir
        sees it rather than silently truncated.
        """
        if not isinstance(value, (int, np.integer)):
            raise InvalidParameterError(
                f"stream value must be an integer, got {value!r} "
                f"(values are domain points in [0, {self._n}))"
            )
        if not 0 <= value < self._n:
            raise InvalidParameterError(
                f"stream value {value} outside the domain [0, {self._n})"
            )
        self._reservoir.update(int(value))
        self._items_seen += 1
        self._since_rebuild += 1
        self._stale = True

    def update_many(self, values: np.ndarray) -> None:
        """Observe a batch of stream items.

        The batch is validated up front, dtype then range, so a bad
        batch raises :class:`InvalidParameterError` before any item is
        absorbed.  An empty batch, of any dtype, is a no-op.
        """
        values = np.asarray(values)
        if values.size == 0:
            return
        if values.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"batch dtype must be integer, got {values.dtype} "
                f"(values are domain points in [0, {self._n}))"
            )
        if values.min() < 0 or values.max() >= self._n:
            raise InvalidParameterError(
                f"batch values span [{int(values.min())}, {int(values.max())}], "
                f"outside the domain [0, {self._n})"
            )
        self._reservoir.update_many(values)
        self._items_seen += int(values.size)
        self._since_rebuild += int(values.size)
        self._stale = True

    def _rebuild(self) -> None:
        if self._reservoir.size == 0:
            return
        session = self._sync_session()
        result = session.learn(self._k, self._epsilon, params=self._params)
        self._histogram = result.filled_histogram
        self._since_rebuild = 0
        self._rebuilds += 1
        if self._forget_after_rebuild:
            self._reservoir = ReservoirSampler(self._reservoir.capacity, self._rng)
            self._session = self._make_session()
            self._stale = False

    # -------------------------------------------------------------- #
    # testing the stream
    # -------------------------------------------------------------- #

    def _tester_params(self, params: TesterParams | None) -> TesterParams:
        if params is not None:
            return params
        # Like the learner default: the reservoir cannot support more
        # independent information than it holds, so budget per set is
        # tied to its capacity (sets are drawn with replacement).
        return TesterParams(
            num_sets=5, set_size=max(self._reservoir.capacity, 16)
        )

    def test(
        self,
        k: int | None = None,
        epsilon: float | None = None,
        *,
        norm: str = "l2",
        params: TesterParams | None = None,
        engine: str | None = None,
    ) -> TestResult:
        """Test the reservoir's contents for tiling k-histogram structure.

        Defaults to the maintainer's own ``(k, epsilon)`` — "does the
        summary's shape assumption still hold?" — and runs through the
        session, so repeated probes between stream updates share one
        draw, one compiled tester sketch, and its verdict memo.
        """
        if self._reservoir.size == 0:
            raise EmptyStreamError("no stream items observed yet; update() first")
        k = self._k if k is None else int(k)
        epsilon = self._epsilon if epsilon is None else float(epsilon)
        session = self._sync_session()
        resolved = self._tester_params(params)
        if norm == "l2":
            return session.test_l2(k, epsilon, params=resolved, engine=engine)
        if norm == "l1":
            return session.test_l1(k, epsilon, params=resolved, engine=engine)
        raise InvalidParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")

    def min_k(
        self,
        epsilon: float | None = None,
        *,
        max_k: int | None = None,
        norm: str = "l1",
        params: TesterParams | None = None,
        engine: str | None = None,
    ) -> SelectionResult:
        """Smallest credible bucket count for the reservoir's contents.

        Useful for adapting ``k`` as the stream drifts; shares the
        session budget (and compiled verdict memo) with :meth:`test`.
        ``norm`` defaults to ``"l1"``, matching :func:`estimate_min_k`
        and :meth:`repro.api.HistogramSession.min_k` (the reservoir-sized
        default ``params`` keep the l1 budget practical).
        """
        if self._reservoir.size == 0:
            raise EmptyStreamError("no stream items observed yet; update() first")
        epsilon = self._epsilon if epsilon is None else float(epsilon)
        session = self._sync_session()
        return session.min_k(
            epsilon,
            max_k=max_k,
            norm=norm,
            params=self._tester_params(params),
            engine=engine,
        )
