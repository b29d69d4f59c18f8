"""Tests for repro.streaming (reservoir + maintainer).

``TestMaintainer`` drives the one-stream case, ``FleetMaintainer(1, ...)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributions import families
from repro.distributions.distances import l1_distance
from repro.errors import InvalidParameterError
from repro.streaming import FleetMaintainer
from repro.streaming.reservoir import ReservoirSampler

# Batches of up to 64 items, flat or 2-D, including empty ones.
_BATCHES = st.lists(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
        elements=st.integers(0, 99),
    ),
    max_size=6,
)


def _feed_twins(capacity, seed, batches, seen=None):
    """A reservoir fed by ``update_many`` and its per-item ``update`` twin.

    ``seen`` starts both twins full, as if that many items had passed.
    """
    twins = [ReservoirSampler(capacity, rng=seed) for _ in range(2)]
    if seen is not None:
        for reservoir in twins:
            reservoir.update_many(np.arange(capacity))
            reservoir._seen = seen
    batched, looped = twins
    for batch in batches:
        batched.update_many(batch)
        for value in batch.ravel():
            looped.update(int(value))
    return batched, looped


def _assert_twins_agree(batched, looped):
    assert batched.seen == looped.seen
    assert np.array_equal(batched.contents(), looped.contents())
    assert batched._rng.bit_generator.state == looped._rng.bit_generator.state
    assert batched._rng.integers(0, 2**40) == looped._rng.integers(0, 2**40)


class TestReservoir:
    def test_fills_to_capacity(self):
        res = ReservoirSampler(4, rng=1)
        res.update_many(np.arange(3))
        assert res.size == 3 and res.seen == 3
        res.update_many(np.arange(10))
        assert res.size == 4 and res.seen == 13

    def test_small_stream_kept_exactly(self):
        res = ReservoirSampler(10, rng=1)
        res.update_many(np.array([5, 7, 9]))
        assert sorted(res.contents()) == [5, 7, 9]

    def test_uniformity_of_retention(self):
        """Algorithm R invariant: every item retained w.p. capacity/seen."""
        capacity, stream_len, trials = 8, 64, 600
        counts = np.zeros(stream_len)
        for t in range(trials):
            res = ReservoirSampler(capacity, rng=t)
            res.update_many(np.arange(stream_len))
            counts[res.contents()] += 1
        expected = capacity / stream_len
        rates = counts / trials
        assert np.abs(rates - expected).max() < 0.08

    def test_sample_with_replacement(self):
        res = ReservoirSampler(4, rng=1)
        res.update_many(np.array([3, 3, 3, 3]))
        assert np.all(res.sample(10, rng=2) == 3)

    def test_empty_sample_raises(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(4).sample(1)

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(0)

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), batches=_BATCHES)
    def test_batched_update_equals_per_item_updates(self, capacity, seed, batches):
        """``update_many`` is the loop of ``update``, down to the rng state.

        Capacity 1 makes every kept draw collide on slot 0; the batches
        straddle the fill boundary and include empty and 2-D ones.
        """
        _assert_twins_agree(*_feed_twins(capacity, seed, batches))

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_batch_across_the_64_bit_draw_switch(self, capacity):
        """Bounds past ``2**32`` move NumPy from 32-bit to 64-bit draws."""
        batches = [np.arange(100, 112)]
        _assert_twins_agree(*_feed_twins(capacity, 3, batches, seen=2**32 - 6))

    def test_update_many_rejects_non_integer_dtype(self):
        res = ReservoirSampler(4, rng=1)
        res.update_many(np.array([1, 2]))
        for bad in (np.array([1.5, 2.7]), np.array([3, np.nan])):
            with pytest.raises(InvalidParameterError, match="dtype must be integer"):
                res.update_many(bad)
        assert res.seen == 2 and list(res.contents()) == [1, 2]
        res.update_many(np.array([]))  # empty input is float64, still accepted
        assert res.seen == 2


class TestMaintainer:
    def test_summarises_stationary_stream(self, rng):
        dist = families.random_tiling_histogram(128, 4, 3, min_piece=8)
        maintainer = FleetMaintainer(
            1, 128, 4, refresh_every=2_000, reservoir_capacity=2_000, rng=5
        )
        maintainer.update_many(0, dist.sample(10_000, rng))
        summary = maintainer.histogram(0)
        assert l1_distance(dist, summary) < 0.25

    def test_adapts_to_drift(self, rng):
        """After a distribution shift, rebuilds track the new regime."""
        before = families.two_level(128, heavy_start=0, heavy_length=16)
        after = families.two_level(128, heavy_start=96, heavy_length=16)
        maintainer = FleetMaintainer(
            1, 128, 4, refresh_every=1_000, reservoir_capacity=1_000, rng=6
        )
        maintainer.update_many(0, before.sample(3_000, rng))
        _ = maintainer.histogram(0)
        # Flood with the new regime: the reservoir turns over.
        maintainer.update_many(0, after.sample(30_000, rng))
        summary = maintainer.histogram(0)
        assert summary.range_mass(__import__("repro").Interval(96, 112)) > 0.5

    def test_lazy_rebuild_counting(self, rng):
        dist = families.uniform(64)
        maintainer = FleetMaintainer(
            1, 64, 2, refresh_every=500, reservoir_capacity=500, rng=7
        )
        maintainer.update_many(0, dist.sample(500, rng))
        assert maintainer.rebuilds == 0  # lazy: nothing rebuilt yet
        _ = maintainer.histogram(0)
        assert maintainer.rebuilds == 1
        _ = maintainer.histogram(0)
        assert maintainer.rebuilds == 1  # cached between refreshes
        maintainer.update_many(0, dist.sample(500, rng))
        _ = maintainer.histogram(0)
        assert maintainer.rebuilds == 2

    def test_empty_stream_raises(self):
        maintainer = FleetMaintainer(1, 64, 2, rng=8)
        with pytest.raises(InvalidParameterError):
            _ = maintainer.histogram(0)

    def test_out_of_domain_update_raises(self):
        maintainer = FleetMaintainer(1, 64, 2, rng=9)
        with pytest.raises(InvalidParameterError):
            maintainer.update(0, 64)
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([-1]))

    def test_items_seen(self, rng):
        maintainer = FleetMaintainer(1, 64, 2, rng=10)
        maintainer.update(0, 5)
        maintainer.update_many(0, np.array([1, 2, 3]))
        assert maintainer.items_seen == [4]

    def test_update_many_rejects_non_integer_intake(self):
        """Floats must not truncate into the reservoir, and a NaN must not
        crash the batch halfway: both are refused with nothing absorbed."""
        maintainer = FleetMaintainer(1, 64, 2, rng=11)
        maintainer.update_many(0, np.array([1, 2, 3]))
        before = maintainer._reservoirs[0].contents()
        for bad in (np.array([1.5, 2.7]), np.array([4.0, np.nan, 5.0])):
            with pytest.raises(InvalidParameterError, match="dtype must be integer"):
                maintainer.update_many(0, bad)
        assert maintainer.items_seen == [3]
        assert np.array_equal(maintainer._reservoirs[0].contents(), before)
        maintainer.update_many(0, np.array([]))  # empty input of any dtype is fine
        assert maintainer.items_seen == [3]

    def test_scalar_update_rejects_non_integer_values(self):
        """A float must not truncate into the reservoir (5.5 -> 5), nor a
        bool become domain point 0 or 1: the scalar path refuses both, as
        update_many refuses float and bool batches."""
        maintainer = FleetMaintainer(1, 64, 2, rng=13)
        maintainer.update(0, np.int64(3))  # NumPy integers are fine
        for bad in (5.5, np.float64(5.5), 4.0, True, False):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                maintainer.update(0, bad)
        assert maintainer.items_seen == [1]
        assert maintainer._reservoirs[0].contents().tolist() == [3]

    def test_update_many_empty_batch_is_a_noop(self, rng):
        maintainer = FleetMaintainer(1, 64, 2, reservoir_capacity=200, rng=12)
        maintainer.update_many(0, rng.integers(0, 64, size=400))
        first = maintainer.test()
        drawn = maintainer.fleet.samples_drawn
        maintainer.update_many(0, np.array([], dtype=np.int64))
        assert maintainer.test() == first
        assert maintainer.fleet.samples_drawn == drawn  # no redraw

    def test_invalid_construction(self):
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(1, 0, 2)
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(1, 64, 2, refresh_every=0)


_BAD_EPSILONS = [0.0, 1.0, 2.0, -1.0, float("nan")]


class TestConstructionEpsilon:
    """One- and many-stream maintainers reject an operating epsilon
    outside (0, 1) up front, with the testers' message, instead of
    failing every later default-epsilon probe."""

    @pytest.mark.parametrize("epsilon", _BAD_EPSILONS)
    def test_single_stream_maintainer(self, epsilon):
        with pytest.raises(InvalidParameterError, match=r"epsilon must be in \(0, 1\)"):
            FleetMaintainer(1, 64, 2, epsilon)

    @pytest.mark.parametrize("epsilon", _BAD_EPSILONS)
    def test_fleet_maintainer(self, epsilon):
        from repro.streaming import FleetMaintainer

        with pytest.raises(InvalidParameterError, match=r"epsilon must be in \(0, 1\)"):
            FleetMaintainer(2, 64, 2, epsilon)


class TestConstructionSizes:
    """``fleet_size``, ``n`` and ``k`` pass the one positive-integer check."""

    @pytest.mark.parametrize(
        "args",
        [
            (1, 2.5, 2),
            (1, "abc", 2),
            (1, 64, "abc"),
            ("abc", 64, 2),
            (1.5, 64, 2),
            (True, 64, 2),
            (0, 64, 2),
            (1, 64, 2.5),
        ],
        ids=[
            "fractional-n",
            "text-n",
            "text-k",
            "text-fleet",
            "fractional-fleet",
            "bool-fleet",
            "empty-fleet",
            "fractional-k",
        ],
    )
    def test_refused(self, args):
        with pytest.raises(InvalidParameterError, match="must be a positive integer"):
            FleetMaintainer(*args)

    def test_integral_values_pass_on_as_int(self):
        maintainer = FleetMaintainer(2.0, 64.0, 2)
        assert maintainer.fleet_size == 2

    @pytest.mark.parametrize("bad", [2.5, "8", True], ids=["fraction", "text", "bool"])
    @pytest.mark.parametrize("name", ["reservoir_capacity", "refresh_every"])
    def test_counts_refused(self, name, bad):
        """Neither count is truncated by ``int()`` or refused with a bare
        ``TypeError``: not by the reservoir, the maintainer or the
        service that forwards both."""
        from repro.serving import HistogramService

        message = ("capacity" if name == "reservoir_capacity" else name) + (
            " must be a positive integer"
        )
        with pytest.raises(InvalidParameterError, match=message):
            FleetMaintainer(2, 64, 4, 0.3, **{name: bad})
        with pytest.raises(InvalidParameterError, match=message):
            HistogramService(["a"], 64, 4, 0.3, **{name: bad})
        if name == "reservoir_capacity":
            with pytest.raises(InvalidParameterError, match=message):
                ReservoirSampler(bad)


class TestEmptyStreamProbes:
    """Probing any maintainer before its first observation is a clear
    :class:`EmptyStreamError` (a ReproError), never a stale-pool crash."""

    def test_single_stream_probes_raise_empty_stream_error(self):
        from repro.errors import EmptyStreamError, ReproError

        maintainer = FleetMaintainer(1, 64, 2, rng=1)
        for probe in (maintainer.test, maintainer.min_k, lambda: maintainer.histogram(0)):
            with pytest.raises(EmptyStreamError):
                probe()
            with pytest.raises(ReproError):  # the catch-all contract
                probe()

    def test_empty_stream_error_is_backward_compatible(self):
        """Existing callers catching InvalidParameterError keep working."""
        from repro.errors import EmptyStreamError

        assert issubclass(EmptyStreamError, InvalidParameterError)


class TestFleetMaintainer:
    def _fed(self, fleet_size=3, **kwargs):
        from repro.streaming import FleetMaintainer

        dist = families.random_tiling_histogram(64, 3, rng=4, min_piece=8)
        maintainer = FleetMaintainer(
            fleet_size, 64, 3, refresh_every=1_000, reservoir_capacity=500,
            rng=8, **kwargs,
        )
        feeder = np.random.default_rng(9)
        for member in range(fleet_size):
            maintainer.update_many(member, dist.sample(2_000, feeder))
        return maintainer

    def test_histograms_and_probes_cover_the_fleet(self):
        maintainer = self._fed()
        summaries = maintainer.histograms()
        assert len(summaries) == 3
        assert maintainer.rebuilds == 3
        verdicts = maintainer.test()
        assert len(verdicts) == 3
        assert all(v.k == 3 and v.norm == "l2" for v in verdicts)
        selections = maintainer.min_k(0.3, max_k=8, norm="l2")
        assert len(selections) == 3

    def test_lazy_per_member_invalidation(self):
        maintainer = self._fed()
        maintainer.test()
        events = [e["test"] for e in maintainer.fleet.draw_events]
        maintainer.update(1, 5)  # only member 1 absorbs an item
        maintainer.test()
        after = [e["test"] for e in maintainer.fleet.draw_events]
        assert after[1] == events[1] + 1
        assert after[0] == events[0] and after[2] == events[2]

    def test_partial_rebuilds_only_due_members(self):
        maintainer = self._fed()
        maintainer.histograms()
        rebuilds = maintainer.rebuilds
        maintainer.update_many(2, np.random.default_rng(3).integers(0, 64, 1_000))
        maintainer.histograms()  # only member 2 crossed refresh_every
        assert maintainer.rebuilds == rebuilds + 1

    def test_empty_members_raise_empty_stream_error(self):
        from repro.errors import EmptyStreamError
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        with pytest.raises(EmptyStreamError):
            maintainer.test()
        with pytest.raises(EmptyStreamError):
            maintainer.min_k()
        with pytest.raises(EmptyStreamError):
            maintainer.histograms()
        maintainer.update(0, 7)
        with pytest.raises(EmptyStreamError):  # member 1 still empty
            maintainer.test()
        with pytest.raises(EmptyStreamError):
            maintainer.histogram(1)
        assert maintainer.histogram(0) is not None

    def test_validation(self):
        from repro.streaming import FleetMaintainer

        with pytest.raises(InvalidParameterError):
            FleetMaintainer(0, 64, 2)
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(2, 64, 0)
        with pytest.raises(InvalidParameterError):
            FleetMaintainer(2, 64, 2, refresh_every=0)
        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError):
            maintainer.update(5, 1)
        with pytest.raises(InvalidParameterError):
            maintainer.update(0, 64)
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([-1]))
        maintainer.update(0, 1)
        with pytest.raises(InvalidParameterError):
            maintainer.test(norm="tv")

    @pytest.mark.parametrize("bad", [0.5, 0.7, True, "1", -1])
    def test_non_integer_members_are_refused(self, bad):
        """A member index is checked, not converted: 0.7, True and "1"
        must not silently name member 0 or 1, on intake or on a probe."""
        maintainer = self._fed(fleet_size=2)
        items = maintainer.items_seen
        generations = maintainer.generations
        calls = [
            lambda: maintainer.update(bad, 3),
            lambda: maintainer.update_many(bad, np.array([1, 2])),
            lambda: maintainer.generation(bad),
            lambda: maintainer.test(members=[bad]),
            lambda: maintainer.min_k(0.3, max_k=4, members=[0, bad]),
            lambda: maintainer.uniformity(members=[bad]),
            lambda: maintainer.histograms_for([bad]),
            lambda: maintainer.learn(members=[bad]),
        ]
        for call in calls:
            with pytest.raises(InvalidParameterError, match=r"\[0, 2\)"):
                call()
        assert maintainer.items_seen == items  # nothing was ingested
        assert maintainer.generations == generations

    def test_scalar_update_rejects_non_integer_values(self):
        """A float must not truncate into the reservoir (3.7 -> 3), nor a
        bool become domain point 0 or 1: the scalar path refuses both, as
        update_many refuses float and bool batches."""
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        maintainer.update(0, np.int64(3))  # NumPy integers are fine
        for bad in (3.7, np.float64(5.5), 4.0, True, False):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                maintainer.update(0, bad)
        assert maintainer.items_seen == [1, 0]
        assert maintainer._reservoirs[0].contents().tolist() == [3]

    def test_update_many_rejects_bad_dtype_with_member_context(self):
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(3, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError) as excinfo:
            maintainer.update_many(1, np.array([0.5, 1.5]))
        message = str(excinfo.value)
        assert "stream 1" in message
        assert "dtype must be integer" in message
        assert "float64" in message

    def test_update_many_rejects_out_of_range_with_span(self):
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(3, 64, 2, rng=1)
        with pytest.raises(InvalidParameterError) as excinfo:
            maintainer.update_many(2, np.array([3, -4, 70]))
        message = str(excinfo.value)
        assert "stream 2" in message
        assert "[-4, 70]" in message  # the actual batch span, for triage
        assert "outside the domain [0, 64)" in message

    def test_failed_batch_leaves_the_reservoir_untouched(self):
        """Validation is all-or-nothing: a rejected batch must not leak
        a prefix into the reservoir or bump the intake counters."""
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        maintainer.update_many(0, np.array([1, 2, 3]))
        seen = maintainer.items_seen[0]
        before = sorted(maintainer._reservoirs[0].contents())
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([4, 5, 999]))
        with pytest.raises(InvalidParameterError):
            maintainer.update_many(0, np.array([6.0, 7.0]))
        assert maintainer.items_seen[0] == seen
        assert sorted(maintainer._reservoirs[0].contents()) == before
        assert maintainer.ready == [True, False]  # member 1 still quiet

    def test_update_many_empty_batch_is_a_noop(self):
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(2, 64, 2, rng=1)
        maintainer.update_many(0, np.array([], dtype=np.int64))
        assert maintainer.items_seen[0] == 0
        assert maintainer.ready == [False, False]
        # On a warm member an empty ingest must neither force a redraw on
        # the next probe nor move the generation (which would orphan its
        # cache entries and put its slabs in the next delta checkpoint).
        warm = self._fed(fleet_size=2)
        warm.test()
        drawn, generations = warm.fleet.samples_drawn, warm.generations
        warm.update_many(0, np.array([], dtype=np.int64))
        warm.update_many(1, np.array([]))
        warm.test()
        assert warm.fleet.samples_drawn == drawn
        assert warm.generations == generations

    def test_batched_and_per_item_intake_agree(self):
        """Twins fed the same items, by batch and per item, answer alike."""
        from repro.streaming import FleetMaintainer

        feeder = np.random.default_rng(21)
        batches = [
            (member, feeder.integers(0, 64, size=size))
            for size in (150, 37, 0, 90)
            for member in range(2)
        ]
        batched, looped = (
            FleetMaintainer(
                2, 64, 2, reservoir_capacity=200, refresh_every=400, rng=13
            )
            for _ in range(2)
        )
        for member, batch in batches:
            batched.update_many(member, batch)
            for value in batch:
                looped.update(member, int(value))
        assert batched.test() == looped.test()
        assert batched.min_k(0.3, max_k=6, norm="l2") == looped.min_k(
            0.3, max_k=6, norm="l2"
        )
        assert batched.fleet.samples_drawn == looped.fleet.samples_drawn

    def test_probe_ready_subset_while_one_stream_quiet(self):
        from repro.errors import EmptyStreamError
        from repro.streaming import FleetMaintainer

        maintainer = FleetMaintainer(
            3, 64, 2, reservoir_capacity=200, refresh_every=400, rng=2
        )
        feeder = np.random.default_rng(5)
        maintainer.update_many(0, feeder.integers(0, 64, 600))
        maintainer.update_many(2, feeder.integers(0, 64, 600))
        with pytest.raises(EmptyStreamError):
            maintainer.test()  # member 1 still quiet
        verdicts = maintainer.test(members=[0, 2])
        assert len(verdicts) == 2
        selections = maintainer.min_k(0.3, max_k=8, norm="l2", members=[2])
        assert len(selections) == 1
        with pytest.raises(EmptyStreamError):
            maintainer.min_k(members=[1])
