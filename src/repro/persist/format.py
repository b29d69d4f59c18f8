"""The snapshot file format: versioned header + page-aligned slab payloads.

One snapshot file carries everything a restore needs::

    offset 0     MAGIC (8 bytes, b"REPROSNP")
    offset 8     header length (uint64, little-endian)
    offset 16    header: UTF-8 JSON
                   {format_version, kind, meta, slabs: [manifest...],
                    parent?, depth?}
    ...          zero padding to the next 4096-byte boundary
    data start   slab payloads, each page-aligned, in manifest order

Each *physical* manifest entry records ``{name, dtype, shape, offset,
nbytes, crc32}`` with ``offset`` relative to the page-aligned data
start, so the header can be sized *after* the payload layout is fixed
without a circular dependency.  ``meta`` is the caller's JSON document —
compile parameters, rng state fingerprints, memo tables — and ``kind``
names the producing layer (``fleet`` / ``maintainer`` / ``service``;
a session writes its one-member fleet's) so a restore seam never maps a
snapshot from the wrong layer.

Format version 2 adds **differential snapshots**: a file written with
``parent=`` may carry *reference* entries ``{name, dtype, shape, nbytes,
crc32, ref: [file, offset]}`` whose payload lives at an absolute offset
in another snapshot file in the same directory.  References are
flattened at write time — a delta whose parent entry is itself a
reference copies that reference verbatim — so resolving any entry opens
at most one other file, and the ``depth`` header field (link count back
to the full base snapshot) is bounded by :data:`MAX_CHAIN` (8), the one
chain bound: the writer refuses a deeper link, the loader refuses a file
that declares one, and :class:`~repro.persist.chain.CheckpointChain`
compacts to a full snapshot when the writer refuses.  Version-1 files
read exactly as before.

:func:`load_snapshot` maps the file once with :func:`numpy.memmap` and
hands out zero-copy *read-only* views.  One parser reads every header —
the loaded file's, each referenced link's, and a delta writer's parent —
so each header check fires per link.  Payload checksums are verified up
front — for referenced payloads against the *referring* file's recorded
crc — and every malformed condition — missing file, bad
magic, truncation, version or kind mismatch, checksum failure, a chain
deeper than :data:`MAX_CHAIN` — surfaces as a structured
:class:`~repro.errors.SnapshotError` whose ``reason`` names the
condition, so restore seams degrade to a cold rebuild instead of
crashing.

:func:`write_snapshot` is crash-safe: the bytes land in a temp file in
the destination directory, are fsynced, and are moved into place with
``os.replace`` (followed by a directory fsync), so a crash mid-write
leaves the previous snapshot generation untouched.  A rename also never
invalidates mappings handed out by an earlier restore — the replaced
inode stays alive for as long as views reference it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from repro.errors import SnapshotError

MAGIC = b"REPROSNP"
FORMAT_VERSION = 2
#: Format versions this build can read (v1 predates differential
#: snapshots; its files carry no parent/ref entries).
SUPPORTED_VERSIONS = (1, 2)
#: The one bound on a delta chain's depth: the writer refuses a link
#: deeper than this, the loader refuses a file that declares one, and
#: :class:`~repro.persist.chain.CheckpointChain` compacts to a full
#: snapshot when the writer refuses.
MAX_CHAIN = 8
_PAGE = 4096


def _align(offset: int, boundary: int = _PAGE) -> int:
    return (offset + boundary - 1) // boundary * boundary


def _sync_file(handle) -> None:
    """Flush one open file to stable storage (chaos-test seam)."""
    handle.flush()
    os.fsync(handle.fileno())


def _sync_dir(path: str) -> None:
    """Fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _check_link_name(owner: str, name: object) -> str:
    """Validate a sibling-file reference (basename only, no traversal)."""
    if (
        not isinstance(name, str)
        or not name
        or name != os.path.basename(name)
        or name in (".", "..")
    ):
        raise SnapshotError(
            f"snapshot {owner!r} references an illegal sibling file "
            f"{name!r} (must be a plain basename)",
            reason="bad-header",
        )
    return name


def _open_snapshot(path: str, kind: str | None = None) -> tuple:
    """Map one snapshot file and parse its header: the one header parser.

    Returns ``(raw, header, data_start)``: the file as a read-only
    ``uint8`` memmap, the JSON header, and the page-aligned offset of
    the first payload.  It checks magic, header length, the JSON
    document (its slab manifest a list of objects), the format version,
    the kind (when ``kind`` is given), the parent link name and the
    declared chain depth, each failure a
    :class:`~repro.errors.SnapshotError` with its ``reason``.  A top-level
    load, every referenced link and a delta writer's parent all go
    through it, so every check fires per link.
    """
    try:
        raw = np.memmap(path, mode="r", dtype=np.uint8)
    except FileNotFoundError as exc:
        raise SnapshotError(f"no snapshot at {path!r}", reason="missing") from exc
    except (OSError, ValueError) as exc:
        raise SnapshotError(
            f"cannot map snapshot {path!r}: {exc}", reason="unreadable"
        ) from exc
    if raw.size < 16 or raw[:8].tobytes() != MAGIC:
        raise SnapshotError(
            f"{path!r} is not a snapshot file (bad magic)", reason="bad-magic"
        )
    (header_len,) = struct.unpack("<Q", raw[8:16].tobytes())
    if 16 + header_len > raw.size:
        raise SnapshotError(
            f"snapshot {path!r} is truncated inside its header",
            reason="truncated",
        )
    try:
        header = json.loads(raw[16 : 16 + header_len].tobytes().decode("utf-8"))
        version = header["format_version"]
        file_kind = header["kind"]
        header["meta"], iter(header["slabs"])
        depth = int(header.get("depth", 0))
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotError(
            f"snapshot {path!r} has a malformed header: {exc}",
            reason="bad-header",
        ) from exc
    if not all(isinstance(spec, dict) for spec in header["slabs"]):
        raise SnapshotError(
            f"snapshot {path!r} has a malformed header: a slab manifest "
            "entry is not a JSON object",
            reason="bad-header",
        )
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"snapshot {path!r} is format version {version!r}, this build "
            f"reads {SUPPORTED_VERSIONS}",
            reason="version-mismatch",
        )
    if kind is not None and file_kind != kind:
        raise SnapshotError(
            f"snapshot {path!r} holds a {file_kind!r} snapshot, expected "
            f"{kind!r}",
            reason="kind-mismatch",
        )
    if header.get("parent") is not None:
        _check_link_name(path, header["parent"])
    if depth > MAX_CHAIN:
        raise SnapshotError(
            f"snapshot {path!r} declares a parent chain {depth} deep "
            f"(bound {MAX_CHAIN})",
            reason="chain-too-deep",
        )
    return raw, header, _align(16 + int(header_len))


def write_snapshot(
    path,
    *,
    kind: str,
    meta: dict,
    slabs: dict,
    parent: "str | os.PathLike | None" = None,
    unchanged=(),
) -> None:
    """Atomically write one snapshot file.

    ``slabs`` maps slab names to arrays (any dtype/shape; non-contiguous
    inputs are compacted).  ``meta`` must be JSON-serializable.  The
    write is all-or-nothing: on any failure the destination still holds
    whatever it held before.

    Differential writes pass ``parent=`` (a sibling snapshot file) plus
    ``unchanged=``: slab names whose payloads are carried as references
    into the parent instead of being re-written.  Each referenced name
    must exist in the parent's manifest (else
    :class:`~repro.errors.SnapshotError` with reason ``missing-slab`` —
    callers fall back to a full write); references to references are
    flattened, so any chain resolves in one hop.  The caller vouches
    that a referenced payload is byte-identical to the parent's — the
    generation tracking upstream is what establishes that.
    """
    path = os.fspath(path)
    # A refused link (the chain compacts on one) costs no checksum pass:
    # the parent is read and every reference resolved first.
    refs, link = [], {}
    if parent is not None:
        parent = os.fspath(parent)
        _, parent_header, parent_data_start = _open_snapshot(parent, kind)
        depth = int(parent_header.get("depth", 0)) + 1
        if depth > MAX_CHAIN:
            raise SnapshotError(
                f"writing {path!r} would chain {depth} snapshots deep "
                f"(bound {MAX_CHAIN}); compact to a full snapshot instead",
                reason="chain-too-deep",
            )
        parent_base = os.path.basename(parent)
        by_name = {spec.get("name"): spec for spec in parent_header["slabs"]}
        for name in unchanged:
            spec = by_name.get(name)
            if spec is None:
                raise SnapshotError(
                    f"parent snapshot {parent!r} holds no slab {name!r} to "
                    "reference",
                    reason="missing-slab",
                )
            if "ref" in spec:
                # Flatten: point straight at the file that physically
                # holds the payload, never at an intermediate delta.
                ref = list(spec["ref"])
            else:
                ref = [parent_base, parent_data_start + int(spec["offset"])]
            refs.append(
                {
                    "name": str(name),
                    "dtype": spec["dtype"],
                    "shape": list(spec["shape"]),
                    "nbytes": int(spec["nbytes"]),
                    "crc32": int(spec["crc32"]),
                    "ref": ref,
                }
            )
        link = {"parent": parent_base, "depth": depth}
    elif unchanged:
        raise SnapshotError(
            "unchanged= slab references require parent=", reason="missing-slab"
        )
    arrays = {name: np.ascontiguousarray(array) for name, array in slabs.items()}
    manifest = []
    offset = 0
    for name, array in arrays.items():
        offset = _align(offset)
        manifest.append(
            {
                "name": str(name),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": array.nbytes,
                "crc32": zlib.crc32(array.data),
            }
        )
        offset += array.nbytes
    header_doc = {
        "format_version": FORMAT_VERSION,
        "kind": str(kind),
        "meta": meta,
        "slabs": manifest + refs,
        **link,
    }
    header = json.dumps(header_doc, sort_keys=True).encode("utf-8")
    data_start = _align(16 + len(header))
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(header)))
        handle.write(header)
        handle.write(b"\0" * (data_start - 16 - len(header)))
        cursor = 0
        for spec, array in zip(manifest, arrays.values()):
            if spec["offset"] > cursor:
                handle.write(b"\0" * (spec["offset"] - cursor))
                cursor = spec["offset"]
            handle.write(array.data)
            cursor += array.nbytes
        _sync_file(handle)
    os.replace(tmp, path)
    _sync_dir(os.path.dirname(path))


class Snapshot:
    """A loaded snapshot: metadata plus zero-copy read-only slab views.

    ``parent`` is the basename of the parent snapshot for a
    differential file (``None`` for a full one) and ``depth`` its
    declared chain depth (0 for a full snapshot).
    """

    def __init__(
        self,
        path: str,
        kind: str,
        meta: dict,
        views: dict,
        parent: str | None = None,
        depth: int = 0,
    ):
        self.path = path
        self.kind = kind
        self.meta = meta
        self.parent = parent
        self.depth = depth
        self._views = views

    @property
    def slab_names(self) -> tuple:
        return tuple(self._views)

    def slab(self, name: str) -> np.ndarray:
        """The named payload as a read-only view over the mapped file."""
        try:
            return self._views[name]
        except KeyError:
            raise SnapshotError(
                f"snapshot {self.path!r} has no slab {name!r}",
                reason="missing-slab",
            ) from None


def load_snapshot(path, *, kind: str | None = None) -> Snapshot:
    """Map and validate one snapshot file (resolving any parent chain).

    Verifies magic, format version, expected ``kind``, manifest sanity,
    chain depth, and every payload's crc32 before returning — for a
    differential snapshot, referenced payloads are mapped out of their
    owning files and checked against the *referring* manifest's recorded
    crc, with the same per-link validation a direct load would perform.
    Any defect raises :class:`~repro.errors.SnapshotError` with a
    ``reason`` code (``missing`` / ``bad-magic`` / ``bad-header`` /
    ``version-mismatch`` / ``kind-mismatch`` / ``truncated`` /
    ``checksum-mismatch`` / ``chain-too-deep``).
    """
    path = os.fspath(path)
    raw, header, data_start = _open_snapshot(path, kind)
    file_kind = header["kind"]
    directory = os.path.dirname(path)
    links: dict[str, np.memmap] = {}
    views: dict[str, np.ndarray] = {}
    for spec in header["slabs"]:
        try:
            name = spec["name"]
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
            nbytes = int(spec["nbytes"])
            crc = int(spec["crc32"])
            if "ref" in spec:
                ref_file, start = spec["ref"]
                start = int(start)
            else:
                ref_file = None
                start = data_start + int(spec["offset"])
                if int(spec["offset"]) < 0:
                    raise ValueError("negative offset")
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot {path!r} has a malformed slab manifest: {exc}",
                reason="bad-header",
            ) from exc
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != expected or start < 0:
            raise SnapshotError(
                f"snapshot {path!r} slab {name!r} manifest is inconsistent "
                f"({nbytes} bytes for shape {shape} of {dtype.str})",
                reason="bad-header",
            )
        if ref_file is not None:
            owner = os.path.join(directory, _check_link_name(path, ref_file))
            if ref_file not in links:
                links[ref_file] = _open_snapshot(owner, file_kind)[0]
            source = links[ref_file]
        else:
            owner, source = path, raw
        if start + nbytes > source.size:
            raise SnapshotError(
                f"snapshot {owner!r} is truncated inside slab {name!r}",
                reason="truncated",
            )
        payload = source[start : start + nbytes]
        if zlib.crc32(payload) != crc:
            raise SnapshotError(
                f"snapshot {owner!r} slab {name!r} fails its checksum",
                reason="checksum-mismatch",
            )
        views[name] = payload.view(dtype).reshape(shape)
    return Snapshot(
        path,
        file_kind,
        header["meta"],
        views,
        parent=header.get("parent"),
        depth=int(header.get("depth", 0)),
    )
