"""Uniform reservoir sampling (Vitter's Algorithm R), batched.

Maintains a uniform-without-replacement sample of a stream; the
streaming maintainers use it as the sample source for greedy rebuilds
and tester probes.

Algorithm R treats the stream's ``j``-th item (counting from 0) in one
of two ways: while the reservoir fills, the item takes slot ``j``;
after that it draws a slot uniformly from ``[0, j]`` and replaces the
occupant if the slot is below the capacity.
:meth:`ReservoirSampler.update_many` runs that rule over a whole batch
in a few array operations.  It copies the fill prefix as one slice,
draws every later item's slot in one ``Generator.integers(0, highs)``
call with ``highs[i] = j_i + 1``, and scatters the kept items so that,
of two items drawing the same slot, the later one wins, as the
sequential overwrite would.

The batch is byte-identical to calling :meth:`ReservoirSampler.update`
once per item.  NumPy draws an array of bounds element by element,
through the same bounded-integer routine it uses for a scalar bound
(Lemire's method on 32-bit words while the bound fits in them, on 64-bit
words after).  So the batch consumes the bit stream exactly as the loop
does: the same slots, the same contents, and the generator ends in the
same state.  That last part matters because each maintainer stream
shares one generator between its reservoir and its pool draws.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng


class ReservoirSampler:
    """A fixed-capacity uniform sample over everything seen so far.

    After ``t`` updates, each of the ``t`` stream items is present in the
    reservoir with probability ``capacity / t`` (exactly, by induction) —
    the classical Algorithm R invariant.
    """

    def __init__(
        self,
        capacity: int,
        rng: "int | None | np.random.Generator" = None,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._rng = as_rng(rng)
        self._items = np.empty(capacity, dtype=np.int64)
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained items."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Total stream items observed."""
        return self._seen

    @property
    def size(self) -> int:
        """Items currently held (``min(seen, capacity)``)."""
        return min(self._seen, self._capacity)

    def update(self, value: int) -> None:
        """Observe one stream item."""
        if self._seen < self._capacity:
            self._items[self._seen] = value
        else:
            slot = int(self._rng.integers(0, self._seen + 1))
            if slot < self._capacity:
                self._items[slot] = value
        self._seen += 1

    def update_many(self, values: np.ndarray) -> None:
        """Observe a batch, in order, as one batched Algorithm R step.

        Leaves the reservoir and its generator exactly as :meth:`update`
        on each item of ``values`` (flattened in C order) would; the
        module docstring says why.  The values must be integers: any
        other dtype raises :class:`InvalidParameterError` and absorbs
        nothing.  An empty batch of any dtype is a no-op.
        """
        values = np.asarray(values).ravel()
        count = values.size
        if count == 0:
            return
        if values.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"reservoir batch dtype must be integer, got {values.dtype}"
            )
        seen, capacity = self._seen, self._capacity
        fill = min(max(capacity - seen, 0), count)
        self._items[seen : seen + fill] = values[:fill]
        if fill < count:
            highs = np.arange(seen + fill + 1, seen + count + 1)
            slots = self._rng.integers(0, highs)
            kept = slots < capacity
            # Duplicate slots in one fancy assignment land in no promised
            # order, so keep each slot's last draw explicitly: the first
            # occurrence in the reversed draws.
            slots, last = np.unique(slots[kept][::-1], return_index=True)
            self._items[slots] = values[fill:][kept][::-1][last]
        self._seen = seen + count

    def contents(self) -> np.ndarray:
        """A copy of the current reservoir contents."""
        return self._items[: self.size].copy()

    def sample(
        self, size: int, rng: "int | None | np.random.Generator" = None
    ) -> np.ndarray:
        """Draw ``size`` items i.i.d. (with replacement) from the reservoir.

        This is the bootstrap view the greedy learner consumes: the
        reservoir approximates the stream's empirical distribution, and
        with-replacement draws from it approximate fresh stream samples.
        """
        if self.size == 0:
            raise InvalidParameterError("cannot sample from an empty reservoir")
        generator = as_rng(rng if rng is not None else self._rng)
        idx = generator.integers(0, self.size, size=size)
        return self._items[idx]
