"""Snapshot/restore: format round trips, corruption, crash-safety, serving.

The binding contract under test: a restored instance answers
**byte-identical** responses — verdicts, histograms, flatness query
logs, memo accounting, and future rng draws — to the live instance it
was snapshotted from; and *any* defective snapshot surfaces as a
structured :class:`~repro.errors.SnapshotError` that triggers a clean
cold rebuild, never a crash.
"""

from __future__ import annotations

import asyncio
import os
import struct

import numpy as np
import pytest

from helpers import compiled_tester
from repro.api.session import HistogramSession
from repro.core.params import GreedyParams, TesterParams
from repro.errors import InjectedFaultError, InvalidParameterError, SnapshotError
from repro.persist import format as persist_format
from repro.persist import load_snapshot, write_snapshot
from repro.serving.requests import Request, canonical, error_code
from repro.serving.service import HistogramService, ServiceConfig
from repro.streaming.fleet import FleetMaintainer

N = 96
LEARN_PARAMS = GreedyParams(
    weight_sample_size=512, collision_sets=3, collision_set_size=256, rounds=2
)
TEST_PARAMS = TesterParams(num_sets=4, set_size=512)


# ------------------------------------------------------------------ #
# file format
# ------------------------------------------------------------------ #


class TestFormat:
    def test_round_trip_views_are_zero_copy_and_read_only(self, tmp_path):
        path = tmp_path / "demo.snap"
        first = np.arange(1000, dtype=np.int64)
        second = np.linspace(0.0, 1.0, 7).reshape(1, 7)
        write_snapshot(
            path,
            kind="demo",
            meta={"answer": 42, "pi": 3.141592653589793},
            slabs={"first": first, "second": second},
        )
        snap = load_snapshot(path, kind="demo")
        assert snap.meta == {"answer": 42, "pi": 3.141592653589793}
        assert snap.slab_names == ("first", "second")
        for name, expected in (("first", first), ("second", second)):
            view = snap.slab(name)
            assert np.array_equal(view, expected)
            assert view.dtype == expected.dtype
            assert not view.flags.writeable  # mapped read-only
            # Zero-copy: the view's buffer chain bottoms out in the
            # memmap over the snapshot file.
            base = view
            while getattr(base, "base", None) is not None:
                if isinstance(base, np.memmap):
                    break
                base = base.base
            assert isinstance(base, np.memmap)

    def test_missing_slab(self, tmp_path):
        path = tmp_path / "demo.snap"
        write_snapshot(path, kind="demo", meta={}, slabs={"a": np.zeros(3)})
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path).slab("b")
        assert excinfo.value.reason == "missing-slab"

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            ("missing", "missing"),
            ("magic", "bad-magic"),
            ("header-truncated", "truncated"),
            ("header-garbage", "bad-header"),
            ("payload-truncated", "truncated"),
            ("payload-flipped", "checksum-mismatch"),
        ],
    )
    def test_corruption_reasons(self, tmp_path, corrupt, reason):
        path = tmp_path / "demo.snap"
        write_snapshot(
            path,
            kind="demo",
            meta={},
            slabs={"a": np.arange(1024, dtype=np.int64)},
        )
        data = bytearray(path.read_bytes())
        if corrupt == "missing":
            path.unlink()
        elif corrupt == "magic":
            data[0] ^= 0xFF
            path.write_bytes(bytes(data))
        elif corrupt == "header-truncated":
            # Claim a header longer than the file.
            data[8:16] = struct.pack("<Q", len(data))
            path.write_bytes(bytes(data))
        elif corrupt == "header-garbage":
            data[20] = 0xFF  # inside the JSON header
            path.write_bytes(bytes(data))
        elif corrupt == "payload-truncated":
            path.write_bytes(bytes(data[: len(data) - 512]))
        elif corrupt == "payload-flipped":
            data[-16] ^= 0xFF
            path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path, kind="demo")
        assert excinfo.value.reason == reason

    def test_unmappable_file_is_unreadable(self, tmp_path):
        path = tmp_path / "demo.snap"
        path.write_bytes(b"")  # an empty file cannot be mmapped
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.reason == "unreadable"

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "a", "dtype": "<i8"},  # missing manifest keys
            {  # nbytes inconsistent with shape * itemsize
                "name": "a",
                "dtype": "<i8",
                "shape": [4],
                "offset": 0,
                "nbytes": 7,
                "crc32": 0,
            },
        ],
        ids=["missing-keys", "inconsistent-nbytes"],
    )
    def test_malformed_slab_manifest(self, tmp_path, spec):
        import json

        path = tmp_path / "demo.snap"
        header = json.dumps(
            {
                "format_version": persist_format.FORMAT_VERSION,
                "kind": "demo",
                "meta": {},
                "slabs": [spec],
            }
        ).encode()
        path.write_bytes(
            persist_format.MAGIC
            + struct.pack("<Q", len(header))
            + header
            + b"\0" * 8192
        )
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path, kind="demo")
        assert excinfo.value.reason == "bad-header"

    def test_version_mismatch(self, tmp_path, monkeypatch):
        path = tmp_path / "demo.snap"
        monkeypatch.setattr(persist_format, "FORMAT_VERSION", 999)
        write_snapshot(path, kind="demo", meta={}, slabs={})
        monkeypatch.undo()
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.reason == "version-mismatch"

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "demo.snap"
        write_snapshot(path, kind="fleet", meta={}, slabs={})
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path, kind="service")
        assert excinfo.value.reason == "kind-mismatch"

    def test_snapshot_error_taxonomy_code(self):
        assert error_code(SnapshotError("x", reason="missing")) == "snapshot_error"


# ------------------------------------------------------------------ #
# differential snapshots (format v2)
# ------------------------------------------------------------------ #


def _delta_header(path):
    _, header, _ = persist_format._open_snapshot(os.fspath(path))
    return header


class TestDifferentialFormat:
    A = np.arange(512, dtype=np.int64)
    B = np.linspace(0.0, 1.0, 33)

    def _base(self, tmp_path):
        base = tmp_path / "base.snap"
        write_snapshot(
            base, kind="demo", meta={"gen": 1}, slabs={"a": self.A, "b": self.B}
        )
        return base

    def test_delta_round_trip_resolves_parent_refs(self, tmp_path):
        base = self._base(tmp_path)
        delta = tmp_path / "delta.snap"
        b2 = self.B * 2.0
        write_snapshot(
            delta,
            kind="demo",
            meta={"gen": 2},
            slabs={"b": b2},
            parent=base,
            unchanged=["a"],
        )
        snap = load_snapshot(delta, kind="demo")
        assert snap.meta == {"gen": 2}
        assert snap.parent == "base.snap" and snap.depth == 1
        assert np.array_equal(snap.slab("a"), self.A)
        assert np.array_equal(snap.slab("b"), b2)
        assert not snap.slab("a").flags.writeable
        # Only the changed payload was re-written.
        assert os.path.getsize(delta) < os.path.getsize(base)

    def test_refs_to_refs_flatten_to_the_owning_file(self, tmp_path):
        base = self._base(tmp_path)
        first = tmp_path / "first.snap"
        second = tmp_path / "second.snap"
        write_snapshot(
            first,
            kind="demo",
            meta={},
            slabs={"b": self.B * 3.0},
            parent=base,
            unchanged=["a"],
        )
        write_snapshot(
            second,
            kind="demo",
            meta={},
            slabs={},
            parent=first,
            unchanged=["a", "b"],
        )
        refs = {
            spec["name"]: spec["ref"][0]
            for spec in _delta_header(second)["slabs"]
            if "ref" in spec
        }
        # "a" chains through first but its reference points straight at
        # the base file: resolution is always one hop.
        assert refs == {"a": "base.snap", "b": "first.snap"}
        snap = load_snapshot(second, kind="demo")
        assert np.array_equal(snap.slab("a"), self.A)
        assert np.array_equal(snap.slab("b"), self.B * 3.0)

    def test_unknown_unchanged_name_is_missing_slab(self, tmp_path):
        base = self._base(tmp_path)
        with pytest.raises(SnapshotError) as excinfo:
            write_snapshot(
                tmp_path / "delta.snap",
                kind="demo",
                meta={},
                slabs={},
                parent=base,
                unchanged=["zzz"],
            )
        assert excinfo.value.reason == "missing-slab"

    def test_unchanged_without_parent_is_missing_slab(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            write_snapshot(
                tmp_path / "delta.snap",
                kind="demo",
                meta={},
                slabs={},
                unchanged=["a"],
            )
        assert excinfo.value.reason == "missing-slab"

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            ("missing", "missing"),
            ("magic", "bad-magic"),
            ("payload-flipped", "checksum-mismatch"),
            ("kind", "kind-mismatch"),
            ("truncated", "truncated"),
        ],
    )
    def test_parent_corruption_fires_per_link(self, tmp_path, corrupt, reason):
        base = self._base(tmp_path)
        delta = tmp_path / "delta.snap"
        write_snapshot(
            delta,
            kind="demo",
            meta={},
            slabs={"b": self.B},
            parent=base,
            unchanged=["a"],
        )
        if corrupt == "missing":
            base.unlink()
        elif corrupt == "magic":
            data = bytearray(base.read_bytes())
            data[0] ^= 0xFF
            base.write_bytes(bytes(data))
        elif corrupt == "payload-flipped":
            data = bytearray(base.read_bytes())
            data[4096 + 100] ^= 0xFF  # inside slab "a", the referenced one
            base.write_bytes(bytes(data))
        elif corrupt == "kind":
            write_snapshot(
                base, kind="other", meta={}, slabs={"a": self.A, "b": self.B}
            )
        elif corrupt == "truncated":
            base.write_bytes(base.read_bytes()[:4100])
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(delta, kind="demo")
        assert excinfo.value.reason == reason

    def test_writer_refuses_a_chain_past_the_bound(self, tmp_path):
        parent = self._base(tmp_path)
        for link in range(persist_format.MAX_CHAIN):
            child = tmp_path / f"link-{link}.snap"
            write_snapshot(
                child,
                kind="demo",
                meta={},
                slabs={"b": self.B},
                parent=parent,
                unchanged=["a"],
            )
            parent = child
        assert _delta_header(parent)["depth"] == persist_format.MAX_CHAIN
        with pytest.raises(SnapshotError) as excinfo:
            write_snapshot(
                tmp_path / "too-deep.snap",
                kind="demo",
                meta={},
                slabs={},
                parent=parent,
                unchanged=["a"],
            )
        assert excinfo.value.reason == "chain-too-deep"

    def _handcrafted(self, tmp_path, header_doc):
        import json

        path = tmp_path / "crafted.snap"
        header = json.dumps(header_doc).encode()
        path.write_bytes(
            persist_format.MAGIC + struct.pack("<Q", len(header)) + header
        )
        return path

    def test_loader_rejects_a_forged_deep_chain(self, tmp_path):
        path = self._handcrafted(
            tmp_path,
            {
                "format_version": persist_format.FORMAT_VERSION,
                "kind": "demo",
                "meta": {},
                "slabs": [],
                "parent": "base.snap",
                "depth": persist_format.MAX_CHAIN + 1,
            },
        )
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path, kind="demo")
        assert excinfo.value.reason == "chain-too-deep"

    @pytest.mark.parametrize("parent", ["../evil.snap", "", "a/b.snap", ".."])
    def test_loader_rejects_traversal_in_link_names(self, tmp_path, parent):
        path = self._handcrafted(
            tmp_path,
            {
                "format_version": persist_format.FORMAT_VERSION,
                "kind": "demo",
                "meta": {},
                "slabs": [],
                "parent": parent,
                "depth": 1,
            },
        )
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path, kind="demo")
        assert excinfo.value.reason == "bad-header"

    def test_v1_files_still_read(self, tmp_path, monkeypatch):
        path = tmp_path / "old.snap"
        monkeypatch.setattr(persist_format, "FORMAT_VERSION", 1)
        write_snapshot(path, kind="demo", meta={"v": 1}, slabs={"a": self.A})
        monkeypatch.undo()
        snap = load_snapshot(path, kind="demo")
        assert snap.meta == {"v": 1}
        assert snap.parent is None and snap.depth == 0
        assert np.array_equal(snap.slab("a"), self.A)


# ------------------------------------------------------------------ #
# crash-safety
# ------------------------------------------------------------------ #


class TestCrashSafety:
    def test_crash_mid_write_keeps_previous_generation(self, tmp_path, monkeypatch):
        """A kill during the fsync of generation 2 leaves generation 1."""
        path = tmp_path / "state.snap"
        write_snapshot(
            path,
            kind="demo",
            meta={"generation": 1},
            slabs={"a": np.arange(256, dtype=np.int64)},
        )
        real_sync = persist_format._sync_file
        syncs = []

        def chaotic_sync(handle):
            syncs.append(handle)
            if len(syncs) == 2:  # second write attempt dies
                raise InjectedFaultError("injected crash mid-checkpoint")
            real_sync(handle)

        monkeypatch.setattr(persist_format, "_sync_file", chaotic_sync)
        write_snapshot(path, kind="demo", meta={"generation": 2}, slabs={})
        with pytest.raises(InjectedFaultError):
            write_snapshot(path, kind="demo", meta={"generation": 3}, slabs={})
        snap = load_snapshot(path, kind="demo")
        # The file is the last *completed* generation, not the torn one.
        assert snap.meta == {"generation": 2}
        assert len(syncs) == 2

    def test_truncated_snapshot_restores_cold(self, tmp_path):
        """Restore of a half-written file degrades, never crashes."""
        maintainer = _built_maintainer(seed=3)
        path = tmp_path / "m.snap"
        maintainer.snapshot(path)
        path.write_bytes(path.read_bytes()[: os.path.getsize(path) // 2])
        fresh = _fresh_maintainer(seed=3)
        with pytest.raises(SnapshotError) as excinfo:
            fresh.restore(path)
        assert excinfo.value.reason in ("truncated", "checksum-mismatch")


# ------------------------------------------------------------------ #
# layer round trips
# ------------------------------------------------------------------ #


def _ingest(maintainer: FleetMaintainer, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for f in range(maintainer.fleet_size):
        maintainer.update_many(f, rng.integers(0, N, size=900))


def _fresh_maintainer(seed: int) -> FleetMaintainer:
    return FleetMaintainer(
        3, N, 3, 0.3, reservoir_capacity=512, params=LEARN_PARAMS, rng=11
    )


def _built_maintainer(seed: int) -> FleetMaintainer:
    maintainer = _fresh_maintainer(seed)
    _ingest(maintainer, seed)
    maintainer.test(3, 0.3, params=TEST_PARAMS)
    maintainer.learn(3, 0.3)
    return maintainer


def _freeze_probe(maintainer: FleetMaintainer):
    """Phase-B probes + memo accounting, hashable for equality checks."""
    outcome = (
        maintainer.test(4, 0.25, params=TEST_PARAMS),
        maintainer.min_k(0.3, max_k=5, params=TEST_PARAMS),
        tuple(
            (tuple(h.boundaries), tuple(h.values))
            for h in maintainer.learn(3, 0.3)
            for h in (h.histogram,)
        ),
    )
    memo = []
    for f in range(maintainer.fleet_size):
        memo.append(
            sorted(
                (key, c.memo_hits, c.memo_misses, c.memo_size)
                for key, c in maintainer.fleet.tester_compiles(f).items()
            )
        )
    return outcome, memo


class TestSessionRoundTrip:
    def test_session_snapshot_restores_memo_rng_and_counters(self, tmp_path):
        """A session snapshot is its one-member fleet's: it round-trips
        the tester memo, the generator state and the draw counters."""
        pmf = np.full(N, 1.0 / N)
        live = HistogramSession(pmf, N, rng=7, max_candidates=64)
        live.test_l2(3, 0.3, params=TEST_PARAMS)
        live.learn(3, 0.3, params=LEARN_PARAMS)
        path = tmp_path / "session.snap"
        live.snapshot(path)
        assert load_snapshot(path).kind == "fleet"

        restored = HistogramSession(pmf, N, rng=12345, max_candidates=64)
        restored.restore(path)
        assert (
            restored._bundle._rng.bit_generator.state
            == live._bundle._rng.bit_generator.state
        )
        assert restored.samples_drawn == live.samples_drawn
        assert restored.draw_events == live.draw_events
        # The memoised verdict log replays: phase-B queries hit/miss in
        # the same pattern on both instances.
        a = live.test_l2(4, 0.25, params=TEST_PARAMS)
        b = restored.test_l2(4, 0.25, params=TEST_PARAMS)
        assert a == b
        live_tester = compiled_tester(live, TEST_PARAMS)
        rest_tester = compiled_tester(restored, TEST_PARAMS)
        assert live_tester._memo == rest_tester._memo
        assert live_tester.memo_hits == rest_tester.memo_hits
        assert live_tester.memo_misses == rest_tester.memo_misses

    def test_bundle_kind_snapshot_restores_cold(self, tmp_path):
        """A file of the retired per-bundle kind (one member's record at
        the top level) is a kind mismatch, and the session stays usable:
        it answers exactly as a fresh one."""
        from repro.persist import codec

        pmf = np.full(N, 1.0 / N)
        live = HistogramSession(pmf, N, rng=7)
        live.test_l2(3, 0.3, params=TEST_PARAMS)
        meta, slabs = codec.fleet_state(live._fleet)
        prefix = "member/0/"
        path = tmp_path / "bundle.snap"
        write_snapshot(
            path,
            kind="bundle",
            meta=meta["members"][0],
            slabs={name[len(prefix) :]: array for name, array in slabs.items()},
        )
        session = HistogramSession(pmf, N, rng=7)
        with pytest.raises(SnapshotError) as excinfo:
            session.restore(path)
        assert excinfo.value.reason == "kind-mismatch"
        assert session.samples_drawn == 0
        assert session.test_l2(3, 0.3, params=TEST_PARAMS) == HistogramSession(
            pmf, N, rng=7
        ).test_l2(3, 0.3, params=TEST_PARAMS)

    def test_other_method_or_cap_restores_cold(self, tmp_path):
        """A session snapshot records its fleet's configuration: another
        ``method`` or ``max_candidates`` is a config mismatch."""
        pmf = np.full(N, 1.0 / N)
        live = HistogramSession(pmf, N, rng=7, max_candidates=64)
        live.test_l2(3, 0.3, params=TEST_PARAMS)
        path = tmp_path / "session.snap"
        live.snapshot(path)
        for other in (
            HistogramSession(pmf, N, rng=7, max_candidates=32),
            HistogramSession(pmf, N, rng=7, method="exhaustive", max_candidates=64),
        ):
            with pytest.raises(SnapshotError) as excinfo:
                other.restore(path)
            assert excinfo.value.reason == "config-mismatch"
            assert other.samples_drawn == 0

    def test_capped_learn_snapshot_keeps_its_pair_list(self, tmp_path):
        """A binding ``max_candidates`` cap compiles a pair list, which
        snapshots as ``lo``/``hi`` plus flat self-costs and restores onto
        the same store, answering later learns identically."""
        values = np.random.default_rng(2).integers(0, N, size=4_000)
        live = HistogramSession(values, N, rng=7, max_candidates=40)
        live.learn(3, 0.3, params=LEARN_PARAMS)
        path = tmp_path / "bundle.snap"
        live.snapshot(path)
        restored = HistogramSession(values, N, rng=12345, max_candidates=40)
        restored.restore(path)
        (compiled,) = restored._bundle._compiled_cache.values()
        assert not compiled.candidates.is_triangle
        assert compiled.candidates.size == 40
        a = live.learn(4, 0.25, params=LEARN_PARAMS)
        b = restored.learn(4, 0.25, params=LEARN_PARAMS)
        assert a.histogram == b.histogram
        assert a.rounds == b.rounds

    def test_bundle_config_mismatch(self, tmp_path):
        pmf = np.full(N, 1.0 / N)
        live = HistogramSession(pmf, N, rng=7)
        live.test_l2(3, 0.3, params=TEST_PARAMS)
        path = tmp_path / "bundle.snap"
        live.snapshot(path)
        other = HistogramSession(np.full(2 * N, 0.5 / N), 2 * N, rng=7)
        with pytest.raises(SnapshotError) as excinfo:
            other.restore(path)
        assert excinfo.value.reason == "config-mismatch"


class TestMaintainerRoundTrip:
    def test_restored_maintainer_is_byte_identical(self, tmp_path):
        live = _built_maintainer(seed=3)
        path = tmp_path / "m.snap"
        live.snapshot(path)

        restored = _fresh_maintainer(seed=3)
        restored.restore(path)
        assert _freeze_probe(live) == _freeze_probe(restored)
        # Stored histograms and counters carried over too.
        assert live.items_seen == restored.items_seen
        assert live.rebuilds == restored.rebuilds
        for a, b in zip(live.histograms(), restored.histograms()):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.boundaries, b.boundaries)
                assert np.array_equal(a.values, b.values)

    def test_restored_maintainer_keeps_ingesting_identically(self, tmp_path):
        """Post-restore rng draws line up: further ingest stays in sync."""
        live = _built_maintainer(seed=3)
        path = tmp_path / "m.snap"
        live.snapshot(path)
        restored = _fresh_maintainer(seed=3)
        restored.restore(path)
        extra = np.arange(700) % N  # > capacity: reservoir spends rng draws
        live.update_many(0, extra)
        restored.update_many(0, extra)
        assert np.array_equal(
            live._reservoirs[0].contents(), restored._reservoirs[0].contents()
        )
        assert _freeze_probe(live) == _freeze_probe(restored)

    def test_legacy_engine_key_in_fleet_meta_still_restores(self, tmp_path):
        """Snapshots from before the engine knobs went carry
        ``"engine": "lockstep"`` and ``"tester_engine": "compiled"`` in
        their fleet meta; neither key is fingerprinted any more, so they
        keep restoring."""
        from repro.persist import codec

        live = _built_maintainer(seed=3)
        meta, slabs = codec.maintainer_state(live)
        assert "engine" not in meta["fleet"]
        assert "tester_engine" not in meta["fleet"]
        meta["fleet"]["engine"] = "lockstep"
        meta["fleet"]["tester_engine"] = "compiled"
        path = tmp_path / "m.snap"
        write_snapshot(path, kind="maintainer", meta=meta, slabs=slabs)
        restored = _fresh_maintainer(seed=3)
        restored.restore(path)
        assert _freeze_probe(live) == _freeze_probe(restored)

    def test_pair_list_snapshot_restores_byte_identically(self, tmp_path):
        """Snapshots from before the triangle form hold each compiled
        learn as a ``lo``/``hi`` pair list with flat self-costs and no
        ``triangle`` flag; they restore onto the pair-list store and
        answer exactly as the live, triangle-form maintainer."""
        from repro.core.candidates import CandidateSet
        from repro.persist import codec

        live = _built_maintainer(seed=3)
        meta, slabs = codec.maintainer_state(live)
        for f, member in enumerate(meta["fleet"]["members"]):
            for j, entry in enumerate(member["learn"]):
                assert entry.pop("triangle") is True
                prefix = f"fleet/member/{f}/learn/{j}/"
                triangle = CandidateSet.triangle(
                    slabs[prefix + "grid"],
                    slabs.pop(prefix + "starts"),
                    slabs.pop(prefix + "stops"),
                )
                matrix = slabs[prefix + "self_costs"]
                slabs[prefix + "lo"] = triangle.lo
                slabs[prefix + "hi"] = triangle.hi
                slabs[prefix + "self_costs"] = matrix[np.triu_indices(len(matrix))]
        path = tmp_path / "m.snap"
        write_snapshot(path, kind="maintainer", meta=meta, slabs=slabs)
        restored = _fresh_maintainer(seed=3)
        restored.restore(path)
        for f in range(restored.fleet_size):
            for compiled in restored.fleet.bundle(f)._compiled_cache.values():
                assert not compiled.candidates.is_triangle
        assert _freeze_probe(live) == _freeze_probe(restored)

    def test_pool_growth_never_writes_the_mapping(self, tmp_path):
        """A larger post-restore budget grows pools off the mapped file."""
        live = _built_maintainer(seed=3)
        path = tmp_path / "m.snap"
        live.snapshot(path)
        restored = _fresh_maintainer(seed=3)
        restored.restore(path)
        bigger = TesterParams(num_sets=4, set_size=700)
        assert live.test(3, 0.3, params=bigger) == restored.test(
            3, 0.3, params=bigger
        )

    def test_sparse_tester_snapshot_restores_byte_identically(self, tmp_path):
        """A sparse-form compile (sorted keys plus a pair prefix) round
        trips through its own slab names, un-offset, and its members'
        lockstep answers and memo accounting carry over exactly."""
        from repro.persist import codec

        sparse = TesterParams(num_sets=4, set_size=24)  # 4 x 24 <= N + 1
        live = _built_maintainer(seed=3)
        live.test(3, 0.3, params=sparse)
        meta, slabs = codec.maintainer_state(live)
        forms = {
            entry["set_size"]: entry["form"]
            for member in meta["fleet"]["members"]
            for entry in member["test"]
        }
        assert forms == {TEST_PARAMS.set_size: "dense", 24: "sparse"}
        assert "fleet/member/2/test/1/keys" in slabs
        assert "fleet/member/2/test/1/pair_prefix" in slabs
        path = tmp_path / "m.snap"
        live.snapshot(path)
        restored = _fresh_maintainer(seed=3)
        restored.restore(path)

        def probe(maintainer):
            return (
                maintainer.test(4, 0.25, params=sparse),
                maintainer.min_k(0.3, max_k=5, params=sparse),
                _freeze_probe(maintainer),
            )

        assert probe(live) == probe(restored)

    @pytest.mark.parametrize("stale", ["no-draw-scheme", "no-form", "other-form"])
    def test_stale_snapshot_restores_cold(self, tmp_path, stale):
        """A snapshot that does not record its draw scheme or its tester
        form (every one written before they were recorded), or that
        records another form, is a config mismatch before any state is
        touched."""
        from repro.persist import codec

        live = _built_maintainer(seed=3)
        meta, slabs = codec.maintainer_state(live)
        member = meta["fleet"]["members"][1]
        if stale == "no-draw-scheme":
            del member["disjoint_sets"]
        elif stale == "no-form":
            del member["test"][0]["form"]
        else:
            member["test"][0]["form"] = "sparse"
        path = tmp_path / "m.snap"
        write_snapshot(path, kind="maintainer", meta=meta, slabs=slabs)
        other = _fresh_maintainer(seed=3)
        with pytest.raises(SnapshotError) as excinfo:
            other.restore(path)
        assert excinfo.value.reason == "config-mismatch"
        assert other.items_seen == [0, 0, 0]  # untouched
        assert other.fleet.samples_drawn == [0, 0, 0]

    def test_config_mismatch_before_any_state_is_touched(self, tmp_path):
        live = _built_maintainer(seed=3)
        path = tmp_path / "m.snap"
        live.snapshot(path)
        other = FleetMaintainer(
            3, N, 4, 0.3, reservoir_capacity=512, params=LEARN_PARAMS, rng=11
        )
        with pytest.raises(SnapshotError) as excinfo:
            other.restore(path)
        assert excinfo.value.reason == "config-mismatch"
        assert other.items_seen == [0, 0, 0]  # untouched


# ------------------------------------------------------------------ #
# service warm-start
# ------------------------------------------------------------------ #


STREAMS = ["alpha", "beta", "gamma"]


def _service(snapshot_dir, cache_capacity=256, **kwargs) -> HistogramService:
    return HistogramService(
        STREAMS,
        N,
        3,
        0.3,
        reservoir_capacity=512,
        params=LEARN_PARAMS,
        tester_params=TEST_PARAMS,
        rng=5,
        snapshot_dir=snapshot_dir,
        config=ServiceConfig(
            max_batch=8, max_linger_us=0.0, cache_capacity=cache_capacity
        ),
        **kwargs,
    )


def _delta_files(snapshot_dir) -> list:
    return sorted(
        name
        for name in os.listdir(snapshot_dir)
        if name.startswith("service-delta-") and name.endswith(".snap")
    )


def _trace(seed: int = 3):
    rng = np.random.default_rng(seed)
    ingest = [
        Request.ingest(s, rng.integers(0, N, size=700).tolist()) for s in STREAMS
    ]
    probes = [Request.test(s, 3, 0.3) for s in STREAMS]
    probes += [Request.min_k(s, 0.3, max_k=4) for s in STREAMS]
    return ingest, probes


async def _serve(service: HistogramService, requests) -> list:
    """Canonicalised ``(ok, response)`` pairs, one per request."""
    responses = []
    async with service:
        for request in requests:
            response = await service.submit(request)
            responses.append((response.ok, canonical(response)))
    return responses


class TestServiceWarmStart:
    def test_restarted_service_answers_byte_identically(self, tmp_path):
        async def scenario():
            ingest, probes = _trace()
            # Run A: ingest + first probes; drain-close checkpoints.
            first = _service(tmp_path)
            assert not first.warm_started
            assert first.restore_error.startswith("missing")
            await _serve(first, ingest + probes[:2])
            assert first.stats["checkpoints"] == 1
            # Reference: one uninterrupted service over the full trace.
            reference = _service(None)
            ref = await _serve(reference, ingest + probes[:2] + probes)
            # Run B: restart from the checkpoint, replay the remainder.
            second = _service(tmp_path)
            assert second.warm_started
            assert second.restore_error is None
            warm = await _serve(second, probes)
            assert warm == ref[len(ingest) + 2 :]

        asyncio.run(scenario())

    def test_corrupt_snapshot_falls_back_cold(self, tmp_path):
        async def scenario():
            ingest, probes = _trace()
            await _serve(_service(tmp_path), ingest)
            path = tmp_path / "service.snap"
            data = bytearray(path.read_bytes())
            data[-64] ^= 0xFF
            path.write_bytes(bytes(data))
            cold = _service(tmp_path)
            assert not cold.warm_started
            assert cold.restore_error.startswith("checksum-mismatch")
            # Cold service still serves (and re-checkpoints a good file).
            responses = await _serve(cold, ingest + probes[:1])
            assert all(ok for ok, _ in responses)
            assert _service(tmp_path).warm_started

        asyncio.run(scenario())

    def test_stream_rename_is_a_config_mismatch(self, tmp_path):
        async def scenario():
            ingest, _ = _trace()
            await _serve(_service(tmp_path), ingest)
            renamed = HistogramService(
                ["alpha", "beta", "delta"],
                N,
                3,
                0.3,
                reservoir_capacity=512,
                params=LEARN_PARAMS,
                rng=5,
                snapshot_dir=tmp_path,
            )
            assert not renamed.warm_started
            assert renamed.restore_error.startswith("config-mismatch")

        asyncio.run(scenario())

    def test_snapshot_without_draw_scheme_restores_cold(self, tmp_path):
        """A checkpoint that does not record its members' draw scheme —
        as none written before it was recorded does — restores cold and
        says why; the cold service then checkpoints a good one."""

        async def scenario():
            ingest, probes = _trace()
            await _serve(_service(tmp_path), ingest + probes[:2])
            path = tmp_path / "service.snap"
            snap = load_snapshot(path)
            slabs = {name: np.array(snap.slab(name)) for name in snap.slab_names}
            meta = snap.meta
            for member in meta["maintainer"]["fleet"]["members"]:
                del member["disjoint_sets"]
            del snap
            write_snapshot(path, kind="service", meta=meta, slabs=slabs)
            cold = _service(tmp_path)
            assert not cold.warm_started
            assert cold.restore_error.startswith("config-mismatch")
            assert "disjoint_sets" in cold.restore_error
            responses = await _serve(cold, ingest + probes[:1])
            assert all(ok for ok, _ in responses)
            assert _service(tmp_path).warm_started

        asyncio.run(scenario())

    def test_periodic_checkpoints_and_failure_counter(self, tmp_path, monkeypatch):
        async def scenario():
            ingest, probes = _trace()
            service = _service(tmp_path, checkpoint_every=1)
            await _serve(service, ingest + probes[:2])
            # One checkpoint per admission window plus the drain-close one.
            assert service.stats["checkpoints"] == service.stats["windows"] + 1
            assert service.stats["checkpoint_failures"] == 0

            def broken_sync(handle):
                raise OSError("disk full")

            monkeypatch.setattr(persist_format, "_sync_file", broken_sync)
            failing = _service(tmp_path, checkpoint_every=1)
            assert failing.warm_started  # restore still fine
            responses = await _serve(failing, probes[:2])
            assert all(ok for ok, _ in responses)  # serving survives
            assert failing.stats["checkpoint_failures"] > 0
            assert failing.stats["checkpoints"] == 0
            monkeypatch.undo()
            # The failed writes never clobbered the good generation.
            assert _service(tmp_path).warm_started

        asyncio.run(scenario())

    def test_checkpoint_requires_snapshot_dir(self):
        with pytest.raises(InvalidParameterError):
            _service(None, checkpoint_every=4)
        service = _service(None)
        with pytest.raises(InvalidParameterError):
            service.checkpoint()

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            _service(tmp_path, checkpoint_every=0)

    def test_unchanged_windows_skip_the_checkpoint(self, tmp_path):
        """The cadence fix: repeat-read windows re-write nothing.

        With the response cache off so repeats actually reach the
        collector, windows in which no stream's generation moved must
        not re-write the snapshot; the drain-close checkpoint stays
        unconditional.
        """

        async def scenario():
            ingest, _ = _trace()
            service = _service(tmp_path, checkpoint_every=1, cache_capacity=0)
            probe = Request.test("alpha", 3, 0.3)
            async with service:
                for request in ingest:
                    await service.submit(request)
                # First probe may grow pools/compile: generation moves.
                await service.submit(probe)
                # Warm it fully: a second identical probe is pure.
                await service.submit(probe)
                watermark = service.stats["checkpoints"]
                windows_before = service.stats["windows"]
                for _ in range(4):
                    assert (await service.submit(probe)).ok
                assert service.stats["windows"] == windows_before + 4
                assert service.stats["checkpoints"] == watermark
            # Drain-close always writes one more, skip logic or not.
            assert service.stats["checkpoints"] == watermark + 1
            assert service.stats["checkpoint_failures"] == 0

        asyncio.run(scenario())


class TestServiceDeltaCheckpoints:
    def test_delta_chain_restores_byte_identically(self, tmp_path):
        async def scenario():
            ingest, probes = _trace()
            service = _service(
                tmp_path, checkpoint_mode="delta", checkpoint_every=1
            )
            await _serve(service, ingest + probes[:2])
            assert service.stats["checkpoints"] > 1
            # The chain is real: a full base plus delta links on disk.
            assert os.path.exists(tmp_path / "service.snap")
            assert _delta_files(tmp_path)
            # Reference: one uninterrupted service over the full trace.
            reference = _service(None)
            ref = await _serve(reference, ingest + probes[:2] + probes)
            # Restart restores through the parent chain.
            second = _service(tmp_path)
            assert second.warm_started
            warm = await _serve(second, probes)
            assert warm == ref[len(ingest) + 2 :]

        asyncio.run(scenario())

    def test_deltas_write_fewer_bytes_than_fulls(self, tmp_path):
        service = _service(tmp_path, checkpoint_mode="delta")
        rng = np.random.default_rng(0)
        for member in range(3):
            service._maintainer.update_many(
                member, rng.integers(0, N, size=700)
            )
        # Probes grow pools and compile sketches: real per-member bulk.
        service._maintainer.test(3, 0.3, params=TEST_PARAMS)
        service._maintainer.learn(3, 0.3)
        first = service.checkpoint()
        assert first == service.snapshot_path  # the chain base is full
        full_bytes = service.stats["checkpoint_bytes"]
        # Touch one member of three (~33% churn): the delta re-writes
        # only that member's slabs.
        service._maintainer.update_many(0, rng.integers(0, N, size=50))
        second = service.checkpoint()
        assert second != service.snapshot_path
        assert os.path.basename(second) in _delta_files(tmp_path)
        assert service.stats["checkpoint_bytes"] < full_bytes

    def test_compaction_rebases_and_prunes_the_chain(self, tmp_path):
        """The chain compacts exactly at ``MAX_CHAIN``, the one bound."""
        bound = persist_format.MAX_CHAIN
        service = _service(tmp_path, checkpoint_mode="delta")
        rng = np.random.default_rng(1)
        for member in range(3):
            service._maintainer.update_many(member, rng.integers(0, N, size=700))

        def churn_and_checkpoint():
            # One member churns between writes.
            service._maintainer.update_many(1, rng.integers(0, N, size=40))
            path = service.checkpoint()
            if path == service.snapshot_path:
                assert _delta_files(tmp_path) == []  # no delta survives a base
            return os.path.basename(path)

        written = [os.path.basename(service.checkpoint())]
        written += [churn_and_checkpoint() for _ in range(2 * bound + 2)]
        links = [f"service-delta-{seq:06d}.snap" for seq in range(1, bound + 1)]
        base = "service.snap"
        assert written == [base, *links, base, *links, base]
        # The newest link is a delta again after one more write; a
        # service restored from it probes like the live one.
        assert churn_and_checkpoint() == links[0]
        restored = _service(tmp_path)
        assert restored.restored_from == os.path.join(tmp_path, links[0])
        assert restored._maintainer.items_seen == service._maintainer.items_seen
        assert _freeze_probe(service._maintainer) == _freeze_probe(
            restored._maintainer
        )

    def test_restart_resumes_with_a_full_checkpoint(self, tmp_path):
        service = _service(tmp_path, checkpoint_mode="delta")
        rng = np.random.default_rng(2)
        service._maintainer.update_many(0, rng.integers(0, N, size=700))
        service.checkpoint()
        service._maintainer.update_many(1, rng.integers(0, N, size=700))
        assert service.checkpoint() != service.snapshot_path
        # A restarted process cannot diff against counters it never saw:
        # its first checkpoint is always a full compaction.
        second = _service(tmp_path, checkpoint_mode="delta")
        assert second.warm_started
        assert second.checkpoint() == second.snapshot_path
        assert _delta_files(tmp_path) == []  # pruned at compaction

    def test_delta_mode_requires_snapshot_dir(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            _service(None, checkpoint_mode="delta")
        with pytest.raises(InvalidParameterError):
            _service(tmp_path, checkpoint_mode="bogus")

    def test_broken_delta_write_falls_back_to_full(self, tmp_path):
        """A delta the parent cannot back self-heals into a compaction."""
        service = _service(tmp_path, checkpoint_mode="delta")
        rng = np.random.default_rng(3)
        service._maintainer.update_many(0, rng.integers(0, N, size=700))
        service.checkpoint()
        service._maintainer.update_many(0, rng.integers(0, N, size=40))
        # Corrupt the chain parent: the delta writer cannot read it.
        with open(service.snapshot_path, "r+b") as handle:
            handle.write(b"XXXXXXXX")
        path = service.checkpoint()
        assert path == service.snapshot_path  # fell back to a full write
        assert _service(tmp_path).warm_started
