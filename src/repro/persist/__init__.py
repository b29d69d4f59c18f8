"""Versioned, mmap-backed snapshot/restore for compiled sketch state.

``repro.persist`` lets every warm layer of the stack survive a process
restart: :class:`~repro.api.HistogramSession` and whole
:class:`~repro.api.HistogramFleet` /
:class:`~repro.streaming.fleet.FleetMaintainer` trees (reservoirs,
histograms, rng states included), and :class:`~repro.serving.service.
HistogramService` checkpoints behind ``repro-serve --snapshot-dir``.

The file format lives in :mod:`repro.persist.format` (crash-safe atomic
writes, page-aligned payloads, per-slab checksums, one header parser and
one chain bound, ``MAX_CHAIN``); the object codecs in
:mod:`repro.persist.codec`; the service's checkpoint chain — file names,
newest-link restore, delta-or-full choice, compaction and pruning — in
:mod:`repro.persist.chain`.  Restores hand zero-copy read-only
``np.memmap`` views straight to the engines; anything malformed raises
:class:`~repro.errors.SnapshotError` and callers cold-rebuild.
"""

from repro.errors import SnapshotError
from repro.persist.format import (
    FORMAT_VERSION,
    MAGIC,
    Snapshot,
    load_snapshot,
    write_snapshot,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "Snapshot",
    "SnapshotError",
    "load_snapshot",
    "write_snapshot",
]
