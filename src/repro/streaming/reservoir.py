"""Uniform reservoir sampling (Vitter's Algorithm R), batched.

Maintains a uniform-without-replacement sample of a stream; the
streaming maintainers use it as the sample source for greedy rebuilds
and tester probes.

Two draws read it.  :meth:`ReservoirSampler.sample` is a with-replacement
bootstrap, which the learner's weight sample uses (weight estimates are
unbiased either way).  :meth:`ReservoirSampler.sample_sets` serves every
collision family: it cuts ``r`` sets from one random permutation of the
held slots, so the sets are disjoint whenever ``r x set_size`` fits in
the reservoir and no set holds a slot twice while ``set_size`` does.
Drawn with replacement instead, two copies of one slot count as a
collision and double every pair rate at ``set_size = capacity``.

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

from repro.core.params import validate_k
from repro.errors import InvalidParameterError
from repro.utils.rng import as_rng


class ReservoirSampler:
    """A fixed-capacity uniform sample over everything seen so far.

    After ``t`` updates, each of the ``t`` stream items is present in the
    reservoir with probability ``capacity / t`` (exactly, by induction) —
    the classical Algorithm R invariant.
    """

    #: :meth:`sample_sets` cuts disjoint sets from one permutation, so a
    #: set cannot grow by appending draws: a consumer that needs larger
    #: or more sets draws the whole family again.
    disjoint_sets = True

    def __init__(
        self,
        capacity: int,
        rng: "int | None | np.random.Generator" = None,
    ) -> None:
        self._capacity = validate_k(capacity, name="capacity")
        self._rng = as_rng(rng)
        self._items = np.empty(self._capacity, dtype=np.int64)
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

        The bootstrap view: the reservoir approximates the stream's
        empirical distribution, and with-replacement draws from it
        approximate fresh stream samples for estimates that are linear
        in the sample, such as the learner's weights.  A collision
        statistic is not: a slot drawn twice counts as a pair, so
        collision sets come from :meth:`sample_sets`.
        """
        generator = self._generator(rng)
        idx = generator.integers(0, self.size, size=size)
        return self._items[idx]

    def sample_sets(
        self,
        num_sets: int,
        set_size: int,
        rng: "int | None | np.random.Generator" = None,
    ) -> list[np.ndarray]:
        """``num_sets`` sets of ``set_size`` items, cut from permutations.

        Draws a random permutation of the held slots and cuts
        consecutive sets of ``set_size`` from it; when the next set does
        not fit in what is left, it starts a new permutation.  So the
        sets are pairwise disjoint whenever ``num_sets * set_size`` is at
        most :attr:`size`, and no set holds a slot twice while
        ``set_size`` is.  Only a stream shorter than one set
        (``set_size > size``) draws each set with replacement, as
        :meth:`sample` does.  Same name and signature as
        :meth:`repro.distributions.DiscreteDistribution.sample_sets`.
        """
        if set_size < 1:
            raise InvalidParameterError(f"set_size must be >= 1, got {set_size}")
        generator = self._generator(rng)
        size = self.size
        if set_size > size:
            return [
                self._items[generator.integers(0, size, size=set_size)]
                for _ in range(num_sets)
            ]
        per_permutation = size // set_size
        sets: list[np.ndarray] = []
        while len(sets) < num_sets:
            cut = min(per_permutation, num_sets - len(sets))
            order = generator.permutation(size)[: cut * set_size]
            sets.extend(self._items[order].reshape(cut, set_size))
        return sets

    def _generator(self, rng) -> np.random.Generator:
        if self.size == 0:
            raise InvalidParameterError("cannot sample from an empty reservoir")
        return as_rng(rng if rng is not None else self._rng)
