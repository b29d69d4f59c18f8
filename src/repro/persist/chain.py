"""The serving checkpoint chain: one full base snapshot plus delta links.

A :class:`CheckpointChain` is the only code that knows a snapshot
directory's layout: the full base ``service.snap`` and the delta links
``service-delta-NNNNNN.snap``, numbered from 1 after each base.  A link
names the previous file as its parent and re-writes only the slabs of
members whose generation moved since that write; the rest ride as
references (:func:`repro.persist.format.write_snapshot`).

A chain object's first write is full: a restored process's generation
counters are not comparable to the writer's.  When the writer refuses a
link — its parent is unreadable, lacks a referenced slab, or already
sits :data:`~repro.persist.format.MAX_CHAIN` links deep — the chain
writes the base instead and prunes every link.  Compaction and
self-healing are that one path, so no depth is counted here.  A restore
reads the newest link: the highest-numbered delta, else the base.

The codec and format entry points are called through their modules
(``persist_format.write_snapshot(...)``), so a wrapper installed on a
module sees every call.
"""

from __future__ import annotations

import os

from repro.errors import SnapshotError
from repro.persist import codec
from repro.persist import format as persist_format

_BASE_NAME = "service.snap"
_DELTA_PREFIX = "service-delta-"
_SUFFIX = ".snap"
_KIND = "service"


class CheckpointChain:
    """The checkpoints of one maintainer tree in ``directory``.

    ``directory`` is created if missing and scanned for the newest link.
    With ``delta=False`` every write re-writes the full base.
    """

    def __init__(self, directory: "str | os.PathLike", *, delta: bool = False) -> None:
        self._directory = os.fspath(directory)
        os.makedirs(self._directory, exist_ok=True)
        self._delta = delta
        self._seq = 0  # the newest delta link's number; 0 for none
        for name in self._delta_names():
            try:
                self._seq = max(self._seq, int(name[len(_DELTA_PREFIX) : -len(_SUFFIX)]))
            except ValueError:
                continue
        # The last file this object wrote and the per-member generations
        # it captured; both None until the first (full) write.
        self._parent: str | None = None
        self._generations: "list[int] | None" = None

    @property
    def base_path(self) -> str:
        """The full base snapshot's path."""
        return os.path.join(self._directory, _BASE_NAME)

    @property
    def generations(self) -> "list[int] | None":
        """Per-member generations at the last write (``None`` before it)."""
        return self._generations

    def newest(self) -> str:
        """The newest checkpoint on disk: the highest delta, else the base."""
        if self._seq:
            path = self._delta_path(self._seq)
            if os.path.exists(path):
                return path
        return self.base_path

    def restore(self, maintainer, meta: dict) -> str:
        """Restore ``maintainer`` from the newest link; returns its path.

        ``meta`` is the caller's record as passed to :meth:`write`; a
        stored value that differs raises ``SnapshotError``
        (``config-mismatch``) before the maintainer is touched.
        """
        path = self.newest()
        snap = persist_format.load_snapshot(path, kind=_KIND)
        codec._check_fingerprint(_KIND, snap.meta, meta)
        codec.restore_maintainer(maintainer, snap.meta["maintainer"], snap.slab)
        return path

    def write(self, maintainer, meta: dict) -> str:
        """Checkpoint ``maintainer`` beside ``meta``; returns the path written.

        A delta link if this object wrote before in delta mode and the
        writer accepts it, else the full base, after which every link is
        pruned.  A failed full write propagates; the previous generation
        on disk stays valid.
        """
        maintainer_meta, slabs = codec.maintainer_state(maintainer)
        meta = {**meta, "maintainer": maintainer_meta}
        generations = maintainer.generations
        written = None
        if self._delta and self._parent is not None:
            written = self._write_delta(meta, slabs, generations)
        if written is None:
            written = self.base_path
            persist_format.write_snapshot(written, kind=_KIND, meta=meta, slabs=slabs)
            for name in self._delta_names():
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            self._seq = 0
        self._parent = written
        self._generations = generations
        return written

    def _write_delta(self, meta: dict, slabs: dict, generations: list) -> "str | None":
        """The next delta link's path, or ``None`` if the writer refused it."""
        moved = [old != new for old, new in zip(self._generations, generations)]
        fresh, unchanged = {}, []
        for name, slab in slabs.items():
            owner = codec.slab_member(name)
            if owner is None or moved[owner]:
                fresh[name] = slab
            else:
                unchanged.append(name)
        path = self._delta_path(self._seq + 1)
        try:
            persist_format.write_snapshot(
                path, kind=_KIND, meta=meta, slabs=fresh, parent=self._parent, unchanged=unchanged
            )
        except SnapshotError:
            return None
        self._seq += 1
        return path

    def _delta_path(self, seq: int) -> str:
        return os.path.join(self._directory, f"{_DELTA_PREFIX}{seq:06d}{_SUFFIX}")

    def _delta_names(self) -> list[str]:
        return [
            name
            for name in os.listdir(self._directory)
            if name.startswith(_DELTA_PREFIX) and name.endswith(_SUFFIX)
        ]
