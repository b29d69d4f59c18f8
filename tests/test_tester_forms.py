"""The compiled tester's two layouts answer with the same integers.

:func:`repro.core.flatness.tester_form` picks a layout from ``(n, m)``
alone: sets sparse in the domain compile into their sorted striped keys
plus a pair prefix, denser sets into per-endpoint prefix columns
(README.md, "Compiled tester engine").  Pinned here: both forms and the
raw :class:`~repro.samples.estimators.MultiSketch` give the same hit and
pair counts on every interval, one member's query and a lockstep
resolve over several members give the same verdicts, and the rule
sits where it was measured.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flatness
from repro.core.flatness import (
    DENSE,
    SPARSE,
    FleetTesterSketches,
    _query_multi,
)
from repro.core.flatness import tester_form as form_rule
from repro.core.params import TesterParams
from repro.core.tester import _reference_test, fleet_test_on_sketches
from repro.distributions import families
from repro.errors import InvalidParameterError
from repro.samples.estimators import MultiSketch


@contextlib.contextmanager
def forced(form: str):
    """Compile in ``form`` whatever ``(n, m)`` is (the rule, patched)."""
    with mock.patch.object(flatness, "tester_form", lambda n, m: form):
        yield


def compile_fleet(form: str, member_sets: "list[list[np.ndarray]]", n: int):
    """A fleet of ``len(member_sets)`` members, each compiled in ``form``."""
    num_sets, set_size = len(member_sets[0]), len(member_sets[0][0])
    with forced(form):
        fleet = FleetTesterSketches(n, num_sets, set_size, len(member_sets))
        for f, sets in enumerate(member_sets):
            fleet.compile_member(f, sets)
    assert fleet.form == form
    return fleet


def all_intervals(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ``[start, stop)`` with ``0 <= start <= stop <= n``."""
    starts, stops = np.triu_indices(n + 1)
    return starts.astype(np.int64), stops.astype(np.int64)


def reference_counts(sets, n, starts, stops):
    """Per-set hits and pairs from the raw sketch's binary searches."""
    multi = MultiSketch.from_sample_sets(sets, n)
    counts = np.stack([s.count(starts, stops) for s in multi.sketches], axis=1)
    pairs = np.stack([s.collisions(starts, stops) for s in multi.sketches], axis=1)
    return counts, pairs


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 48))
    num_sets = draw(st.integers(1, 6))
    set_size = draw(st.integers(1, 4 * n))
    size = draw(st.integers(1, 3))
    # A small alphabet forces repeated values; 0 and n - 1 always occur.
    alphabet = draw(st.integers(1, n))
    values = st.integers(0, alphabet - 1).map(
        lambda v, n=n, a=alphabet: v * (n - 1) // max(a - 1, 1)
    )
    member_sets = []
    for _ in range(size):
        sets = [
            np.array(
                draw(st.lists(values, min_size=set_size, max_size=set_size)),
                dtype=np.int64,
            )
            for _ in range(num_sets)
        ]
        member_sets.append(sets)
    return n, member_sets


class TestBothForms:
    @settings(max_examples=40, deadline=None)
    @given(fleets())
    def test_same_counts_on_every_interval(self, case):
        n, member_sets = case
        starts, stops = all_intervals(n)
        dense = compile_fleet(DENSE, member_sets, n)
        sparse = compile_fleet(SPARSE, member_sets, n)
        for f, sets in enumerate(member_sets):
            expected = reference_counts(sets, n, starts, stops)
            for fleet in (dense, sparse):
                counts, pairs = fleet.member(f).interval_counts(starts, stops)
                assert np.array_equal(counts, expected[0])
                assert np.array_equal(pairs, expected[1])
        # Lockstep: one batch over every member, read from the stacks.
        members = np.repeat(np.arange(len(member_sets)), starts.size)
        batch_starts = np.tile(starts, len(member_sets))
        batch_stops = np.tile(stops, len(member_sets))
        for fleet in (dense, sparse):
            counts, pairs = fleet.interval_counts(members, batch_starts, batch_stops)
            for f in range(len(member_sets)):
                rows = slice(f * starts.size, (f + 1) * starts.size)
                own = fleet.member(f).interval_counts(starts, stops)
                assert np.array_equal(counts[rows], own[0])
                assert np.array_equal(pairs[rows], own[1])

    @settings(max_examples=25, deadline=None)
    @given(fleets(), st.sampled_from(["l2", "l1"]), st.sampled_from([0.2, 0.5]))
    def test_same_verdicts_query_and_lockstep(self, case, metric, epsilon):
        n, member_sets = case
        starts, stops = all_intervals(n)
        keep = stops > starts
        starts, stops = starts[keep], stops[keep]
        scale = 1.0 if metric == "l2" else 0.001
        fleets_by_form = {
            form: compile_fleet(form, member_sets, n) for form in (DENSE, SPARSE)
        }
        for f, sets in enumerate(member_sets):
            multi = MultiSketch.from_sample_sets(sets, n)
            expected = [
                _query_multi(multi, a, b, metric, epsilon, scale)
                for a, b in zip(starts.tolist(), stops.tolist())
            ]
            for fleet in fleets_by_form.values():
                member = fleet.member(f)
                assert [
                    member.query(a, b, metric, epsilon, scale)
                    for a, b in zip(starts.tolist(), stops.tolist())
                ] == expected
        # One resolve round per interval, over every member at once.
        members = np.arange(len(member_sets), dtype=np.int64)
        for form in (DENSE, SPARSE):
            fresh = compile_fleet(form, member_sets, n)
            oracle = fresh.oracle(metric, epsilon, scale)
            for a, b in zip(starts.tolist(), stops.tolist()):
                batch = oracle.resolve(
                    members, np.full(members.size, a), np.full(members.size, b)
                )
                assert batch == [
                    fleets_by_form[form].member(f).query(a, b, metric, epsilon, scale)
                    for f in members.tolist()
                ]

    def test_tester_runs_match_the_reference_in_both_forms(self):
        n, params = 256, TesterParams(num_sets=5, set_size=40)
        dist = families.random_tiling_histogram(n, 4, rng=3, min_piece=8)
        member_sets = [
            [np.asarray(s) for s in dist.sample_sets(5, 40, np.random.default_rng(f))]
            for f in range(3)
        ]
        for form in (DENSE, SPARSE):
            fleet = compile_fleet(form, member_sets, n)
            for norm in ("l2", "l1"):
                results = fleet_test_on_sketches(fleet, n, 4, 0.3, norm, params)
                assert results == [
                    _reference_test(
                        MultiSketch.from_sample_sets(sets, n), n, 4, 0.3, norm, params
                    )
                    for sets in member_sets
                ]

    def test_interval_counts_validates_endpoints(self):
        for form in (DENSE, SPARSE):
            fleet = compile_fleet(form, [[np.arange(8)] * 2], 8)
            member = fleet.member(0)
            for starts, stops in (([0], [9]), ([-1], [3]), ([4], [3]), ([0, 1], [2])):
                with pytest.raises(InvalidParameterError):
                    member.interval_counts(starts, stops)


class TestFormRule:
    def test_threshold_sits_at_four_set_sizes_per_endpoint(self):
        # Sparse while 4 m <= n + 1, dense beyond.
        assert form_rule(4_095, 1_024) == SPARSE
        assert form_rule(4_095, 1_025) == DENSE
        assert form_rule(4_096, 1_024) == SPARSE
        assert form_rule(4_096, 1_025) == DENSE
        assert form_rule(1, 1) == DENSE

    def test_serving_budgets_land_on_both_sides(self):
        # perfbench's storm and relearn budgets compile sparse, requery's dense.
        assert form_rule(4_096, 819) == SPARSE  # storm: 5 x 4,096 // 5
        assert form_rule(4_096, 102) == SPARSE  # relearn: 5 x 512 // 5
        assert form_rule(1_024, 819) == DENSE  # requery: n = 1,024

    @pytest.mark.parametrize(("set_size", "form"), [(16, SPARSE), (17, DENSE)])
    def test_compile_takes_the_rule_form(self, set_size, form):
        sets = [np.arange(set_size) % 64 for _ in range(3)]
        fleet = FleetTesterSketches(64, 3, set_size, fleet_size=2)
        member = fleet.compile_member(1, sets)
        assert fleet.form == member.form == form
        names = {DENSE: {"count_cols", "pair_cols"}, SPARSE: {"keys", "pair_prefix"}}
        assert set(member.state()[1]) == names[form]
        # The stacks hold r m + 1 entries per member sparse, (n + 1) r dense.
        width = 3 * set_size + 1 if form == SPARSE else 65 * 3
        assert fleet.nbytes == 2 * 2 * width * 8
