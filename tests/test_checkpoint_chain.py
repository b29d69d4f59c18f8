"""The checkpoint chain alone: a maintainer, a directory, no service.

:class:`~repro.persist.chain.CheckpointChain` owns the service's
checkpoint files — the full base, the numbered delta links, the
newest-link restore, the delta-or-full choice and the pruning after a
compaction.  These tests drive it with a bare
:class:`~repro.streaming.fleet.FleetMaintainer` and no event loop.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from repro.core.params import GreedyParams, TesterParams
from repro.errors import SnapshotError
from repro.persist import codec, load_snapshot
from repro.persist import format as persist_format
from repro.persist.chain import CheckpointChain
from repro.streaming.fleet import FleetMaintainer

N = 96
LEARN_PARAMS = GreedyParams(
    weight_sample_size=256, collision_sets=3, collision_set_size=128, rounds=2
)
TEST_PARAMS = TesterParams(num_sets=4, set_size=256)
META = {"streams": ["a", "b", "c"]}


def _maintainer() -> FleetMaintainer:
    return FleetMaintainer(3, N, 3, 0.3, reservoir_capacity=256, params=LEARN_PARAMS, rng=11)


def _churn(maintainer: FleetMaintainer, rng, member: int = 1) -> None:
    maintainer.update_many(member, rng.integers(0, N, size=40))


def _warm(seed: int = 0) -> tuple:
    maintainer = _maintainer()
    rng = np.random.default_rng(seed)
    for member in range(maintainer.fleet_size):
        maintainer.update_many(member, rng.integers(0, N, size=300))
    maintainer.test(3, 0.3, params=TEST_PARAMS)
    return maintainer, rng


def _probe(maintainer: FleetMaintainer) -> tuple:
    return (
        maintainer.items_seen,
        maintainer.test(3, 0.3, params=TEST_PARAMS),
        tuple(
            (tuple(result.histogram.boundaries), tuple(result.histogram.values))
            for result in maintainer.learn(3, 0.3)
        ),
    )


def _deltas(directory) -> list:
    return sorted(name for name in os.listdir(directory) if name.startswith("service-delta-"))


class TestWrites:
    def test_full_write_then_delta_links(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        assert chain.generations is None
        first = chain.write(maintainer, META)
        assert first == chain.base_path == os.path.join(tmp_path, "service.snap")
        assert chain.generations == maintainer.generations
        _churn(maintainer, rng)
        second = chain.write(maintainer, META)
        _churn(maintainer, rng)
        third = chain.write(maintainer, META)
        assert [os.path.basename(second), os.path.basename(third)] == [
            "service-delta-000001.snap",
            "service-delta-000002.snap",
        ]
        snap = load_snapshot(third, kind="service")
        assert snap.parent == "service-delta-000001.snap" and snap.depth == 2
        assert {key: snap.meta[key] for key in META} == META
        # Only the churned member's slabs were re-written.
        assert os.path.getsize(second) < os.path.getsize(first) / 2

    def test_full_mode_always_writes_the_base(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path)
        for _ in range(3):
            _churn(maintainer, rng)
            assert chain.write(maintainer, META) == chain.base_path
        assert _deltas(tmp_path) == []

    def test_compacts_at_the_chain_bound(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        chain.write(maintainer, META)
        for seq in range(1, persist_format.MAX_CHAIN + 1):
            _churn(maintainer, rng)
            path = chain.write(maintainer, META)
            assert os.path.basename(path) == f"service-delta-{seq:06d}.snap"
        assert len(_deltas(tmp_path)) == persist_format.MAX_CHAIN
        # The writer refuses a link past the bound: the chain compacts
        # to a full base and prunes every delta file.
        _churn(maintainer, rng)
        assert chain.write(maintainer, META) == chain.base_path
        assert _deltas(tmp_path) == []
        _churn(maintainer, rng)
        assert os.path.basename(chain.write(maintainer, META)) == "service-delta-000001.snap"

    def test_unreadable_parent_falls_back_to_a_full_write(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        chain.write(maintainer, META)
        _churn(maintainer, rng)
        link = chain.write(maintainer, META)
        with open(link, "r+b") as handle:
            handle.write(b"XXXXXXXX")  # the next delta's parent
        _churn(maintainer, rng)
        assert chain.write(maintainer, META) == chain.base_path
        assert _deltas(tmp_path) == []
        fresh = _maintainer()
        assert CheckpointChain(tmp_path).restore(fresh, META) == chain.base_path
        assert _probe(fresh) == _probe(maintainer)

    def test_malformed_parent_manifest_falls_back_to_a_full_write(self, tmp_path):
        # A parent header that is valid JSON but lists a slab entry that
        # is not an object once made every later delta write raise.
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        base = chain.write(maintainer, META)
        with open(base, "r+b") as handle:
            handle.seek(8)
            (length,) = struct.unpack("<Q", handle.read(8))
            header = json.loads(handle.read(length))
            header["slabs"] = [1]
            text = json.dumps(header).encode()
            assert len(text) <= length
            handle.seek(16)
            handle.write(text.ljust(length))
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(base, kind="service")
        assert excinfo.value.reason == "bad-header"
        _churn(maintainer, rng)
        assert chain.write(maintainer, META) == chain.base_path
        fresh = _maintainer()
        assert CheckpointChain(tmp_path).restore(fresh, META) == chain.base_path
        assert _probe(fresh) == _probe(maintainer)
        _churn(maintainer, rng)
        assert os.path.basename(chain.write(maintainer, META)) == "service-delta-000001.snap"

    def test_goes_through_the_module_entry_points(self, tmp_path, monkeypatch):
        calls = []
        for module, name in (
            (codec, "maintainer_state"),
            (codec, "restore_maintainer"),
            (persist_format, "write_snapshot"),
            (persist_format, "load_snapshot"),
        ):
            original = getattr(module, name)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        chain.write(maintainer, META)
        _churn(maintainer, rng)
        chain.write(maintainer, META)
        CheckpointChain(tmp_path).restore(_maintainer(), META)
        assert calls == [
            "maintainer_state",
            "write_snapshot",
            "maintainer_state",
            "write_snapshot",
            "load_snapshot",
            "restore_maintainer",
        ]


class TestRestore:
    def test_restores_the_newest_link(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        chain.write(maintainer, META)
        for _ in range(3):
            _churn(maintainer, rng, member=int(rng.integers(0, 3)))
            newest = chain.write(maintainer, META)
        reopened = CheckpointChain(tmp_path, delta=True)
        assert reopened.newest() == newest
        fresh = _maintainer()
        assert reopened.restore(fresh, META) == newest
        assert _probe(fresh) == _probe(maintainer)

    def test_first_write_after_reopening_is_full_and_prunes(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        chain.write(maintainer, META)
        _churn(maintainer, rng)
        chain.write(maintainer, META)
        reopened = CheckpointChain(tmp_path, delta=True)
        restored = _maintainer()
        reopened.restore(restored, META)
        # Generation counters of another process are not comparable.
        assert reopened.write(restored, META) == reopened.base_path
        assert _deltas(tmp_path) == []
        assert reopened.newest() == reopened.base_path

    def test_empty_directory_restores_nothing(self, tmp_path):
        chain = CheckpointChain(tmp_path / "new", delta=True)
        assert os.path.isdir(tmp_path / "new")
        assert chain.newest() == chain.base_path
        with pytest.raises(SnapshotError) as excinfo:
            chain.restore(_maintainer(), META)
        assert excinfo.value.reason == "missing"

    def test_meta_mismatch_refuses_before_touching_the_maintainer(self, tmp_path):
        maintainer, _ = _warm()
        CheckpointChain(tmp_path).write(maintainer, META)
        fresh = _maintainer()
        with pytest.raises(SnapshotError) as excinfo:
            CheckpointChain(tmp_path).restore(fresh, {"streams": ["a", "b", "z"]})
        assert excinfo.value.reason == "config-mismatch"
        assert fresh.items_seen == [0, 0, 0]

    def test_stray_names_do_not_confuse_the_scan(self, tmp_path):
        maintainer, rng = _warm()
        chain = CheckpointChain(tmp_path, delta=True)
        chain.write(maintainer, META)
        _churn(maintainer, rng)
        newest = chain.write(maintainer, META)
        (tmp_path / "service-delta-notanumber.snap").write_bytes(b"")
        assert CheckpointChain(tmp_path).newest() == newest
