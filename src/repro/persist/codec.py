"""Codecs between live objects and snapshot ``(meta, slabs)`` pairs.

Each ``*_state`` function flattens one layer's warm state — sample
pools, compiled greedy/tester sketches, verdict memos, rng states,
reservoirs, counters — into a JSON-safe ``meta`` document plus a flat
dict of named arrays; the matching ``restore_*`` rebuilds the layer *in
place* on a freshly constructed instance.  Layers nest by slab-name
prefixing (``member/{f}/...`` inside a fleet, ``fleet/...`` inside a
maintainer), so one file checkpoints a whole serving tree.

Restores are zero-copy where the engines allow it: compiled prefix
slabs, candidate grids, sorted weight samples, and sample pools are
handed to the engines as the loader's read-only memmap views, planted
where the live compiles sit: learn compiles under the bundle's cache
keys, tester compiles in the fleet's slots.
The structures that must stay mutable (reservoir buffers, the small
``k``-piece histograms) are copied.  A compiled tester is read and
written only through the fleet that owns it
(:meth:`~repro.api.HistogramFleet.tester_compiles` and
:meth:`~repro.core.flatness.FleetTesterSketches.restore_member`) and
:meth:`~repro.core.flatness.CompiledTesterSketches.state` /
:meth:`~repro.core.flatness.CompiledTesterSketches.from_state`, so its
layout (dense ``count_cols``/``pair_cols`` or sparse
``keys``/``pair_prefix`` slabs) stays private to ``core/flatness.py``.
Each member's tester entries sit in its own record, under
``member/{f}/test/{j}/``, so a delta checkpoint rewrites only the
members that moved.  The fleet's stacks are deliberately *not*
persisted: a restored member keeps its mapped arrays, and the first
call over several members that lists it copies them in.

The binding contract: a restored instance answers byte-identical
responses — verdicts, histograms, query logs, memo accounting, and
future rng draws — to the live instance it was snapshotted from.  Two
details carry most of that weight.  First, JSON round-trips the exact
bits of every finite float (``repr`` ↔ parse) and arbitrary-precision
ints, so memo keys, thresholds, and PCG64 states restore exactly.
Second, each fleet member's reservoir and bundle share one
``Generator`` object, so assigning ``bit_generator.state`` in the
member restore rewinds both at once.

A configuration fingerprint mismatch (the restoring instance was built
with different ``n``/sizes/method than the snapshotted one) raises
:class:`~repro.errors.SnapshotError` with ``reason="config-mismatch"``
*before* any state is touched at that layer, so callers fall back to a
cold rebuild.  Each member's record includes its draw scheme (the
source's ``disjoint_sets``) and each compiled tester's form
(:func:`~repro.core.flatness.tester_form`); a snapshot that lacks them,
as every one written before they were recorded does, restores cold.
"""

from __future__ import annotations

import numpy as np

from repro.api.sketches import _GrowablePool
from repro.core.candidates import CandidateSet
from repro.core.flatness import CompiledTesterSketches, tester_form
from repro.core.greedy import CompiledGreedySketches
from repro.errors import SnapshotError
from repro.histograms.tiling import TilingHistogram
from repro.samples.sample_set import SampleSet


def _scoped(slab, prefix: str):
    """A slab accessor that resolves names under ``prefix``."""
    return lambda name: slab(prefix + name)


def _sample_set_over(sorted_values: np.ndarray, n: int) -> SampleSet:
    """A :class:`SampleSet` adopting an already-sorted read-only view.

    The constructor would sort (and copy) again; the snapshot's payload
    is the checksummed ``sorted_values`` of the set being restored, so
    the view is adopted directly (sortedness was established when it was
    built).
    """
    built = SampleSet.__new__(SampleSet)
    built._sorted = sorted_values
    built._n = int(n)
    return built


def _check_fingerprint(layer: str, meta: dict, expected: dict) -> None:
    """Refuse ``meta`` unless it records the ``expected`` configuration."""
    stored = {key: meta.get(key) for key in expected}
    if stored != expected:
        raise SnapshotError(
            f"{layer} snapshot was taken under configuration {stored}, "
            f"this instance is configured as {expected}",
            reason="config-mismatch",
        )


# ------------------------------------------------------------------ #
# HistogramFleet
# ------------------------------------------------------------------ #


def _member_state(fleet, f: int) -> tuple[dict, dict]:
    """One member's pools, compiles, memos, and rng state."""
    bundle = fleet.bundle(f)
    meta = {
        "n": int(bundle._n),
        "disjoint_sets": bool(bundle._disjoint_sets),
        "samples_drawn": int(bundle.samples_drawn),
        "draw_events": {
            str(key): int(value) for key, value in bundle.draw_events.items()
        },
        "rng_state": bundle._rng.bit_generator.state,
        "collision_pools": len(bundle._collision_pool),
        "tester_pools": len(bundle._tester_pool),
        "learn": [],
        "test": [],
    }
    slabs = {
        "pool/weight": bundle._weight_pool.view(bundle._weight_pool.length)
    }
    for i, pool in enumerate(bundle._collision_pool):
        slabs[f"pool/collision/{i}"] = pool.view(pool.length)
    for i, pool in enumerate(bundle._tester_pool):
        slabs[f"pool/tester/{i}"] = pool.view(pool.length)
    for j, (key, compiled) in enumerate(bundle._compiled_cache.items()):
        method, max_candidates, weight_size, num_sets, set_size = key
        meta["learn"].append(
            {
                "method": str(method),
                "max_candidates": (
                    None if max_candidates is None else int(max_candidates)
                ),
                "weight_sample_size": int(weight_size),
                "collision_sets": int(num_sets),
                "collision_set_size": int(set_size),
                "pairs_per_set": float(compiled.pairs_per_set),
                "triangle": compiled.candidates.is_triangle,
            }
        )
        candidates = compiled.candidates
        slabs[f"learn/{j}/grid"] = candidates.grid
        if candidates.is_triangle:
            slabs[f"learn/{j}/starts"] = candidates.starts
            slabs[f"learn/{j}/stops"] = candidates.stops
        else:
            slabs[f"learn/{j}/lo"] = candidates.lo
            slabs[f"learn/{j}/hi"] = candidates.hi
        slabs[f"learn/{j}/weight_sorted"] = compiled.weight_set.sorted_values
        slabs[f"learn/{j}/weight_prefix"] = compiled.weight_prefix
        slabs[f"learn/{j}/pair_prefix_cols"] = compiled.pair_prefix_cols
        slabs[f"learn/{j}/self_costs"] = compiled.self_costs
    for j, ((num_sets, set_size), compiled) in enumerate(
        fleet.tester_compiles(f).items()
    ):
        tester_meta, arrays = compiled.state()
        meta["test"].append(
            {"num_sets": int(num_sets), "set_size": int(set_size), **tester_meta}
        )
        for name, array in arrays.items():
            slabs[f"test/{j}/{name}"] = array
    return meta, slabs


def _check_member(bundle, meta: dict) -> None:
    """Refuse a member record taken under another configuration.

    The domain, the draw scheme (whether the source cuts disjoint sets)
    and the layout of every compiled tester must match what this member
    would build: pools drawn another way, or a compile in another form,
    restore cold.  Snapshots that predate either record fail here too.
    """
    _check_fingerprint(
        "member",
        meta,
        {"n": int(bundle._n), "disjoint_sets": bool(bundle._disjoint_sets)},
    )
    for entry in meta["test"]:
        _check_fingerprint(
            "tester",
            entry,
            {"form": tester_form(bundle._n, int(entry["set_size"]))},
        )


def _restore_member(fleet, f: int, meta: dict, slab) -> None:
    """Rebuild one member in place from restored state (zero-copy)."""
    bundle = fleet.bundle(f)
    bundle.invalidate()
    bundle._weight_pool = _GrowablePool(slab("pool/weight"))
    bundle._collision_pool = [
        _GrowablePool(slab(f"pool/collision/{i}"))
        for i in range(int(meta["collision_pools"]))
    ]
    bundle._tester_pool = [
        _GrowablePool(slab(f"pool/tester/{i}"))
        for i in range(int(meta["tester_pools"]))
    ]
    for j, entry in enumerate(meta["learn"]):
        # Snapshots written before the triangle form carry no flag and a
        # pair list with flat self-costs; the engine's pair-list store
        # answers them byte-identically.
        if entry.get("triangle", False):
            candidates = CandidateSet.triangle(
                slab(f"learn/{j}/grid"),
                slab(f"learn/{j}/starts"),
                slab(f"learn/{j}/stops"),
            )
        else:
            candidates = CandidateSet(
                slab(f"learn/{j}/grid"),
                slab(f"learn/{j}/lo"),
                slab(f"learn/{j}/hi"),
            )
        compiled = CompiledGreedySketches(
            candidates=candidates,
            weight_set=_sample_set_over(
                slab(f"learn/{j}/weight_sorted"), bundle._n
            ),
            weight_prefix=slab(f"learn/{j}/weight_prefix"),
            pair_prefix_cols=slab(f"learn/{j}/pair_prefix_cols"),
            self_costs=slab(f"learn/{j}/self_costs"),
            pairs_per_set=float(entry["pairs_per_set"]),
        )
        key = (
            str(entry["method"]),
            (
                None
                if entry["max_candidates"] is None
                else int(entry["max_candidates"])
            ),
            int(entry["weight_sample_size"]),
            int(entry["collision_sets"]),
            int(entry["collision_set_size"]),
        )
        bundle._compiled_cache[key] = compiled
    for j, entry in enumerate(meta["test"]):
        compiled = CompiledTesterSketches.from_state(
            bundle._n, int(entry["set_size"]), entry, _scoped(slab, f"test/{j}/")
        )
        fleet._restore_tester(f, compiled)
    bundle.draw_events.clear()
    bundle.draw_events.update(
        {str(key): int(value) for key, value in meta["draw_events"].items()}
    )
    bundle.samples_drawn = int(meta["samples_drawn"])
    # In place: the reservoir and bundle of one fleet member share this
    # Generator, so both rewind together.
    bundle._rng.bit_generator.state = meta["rng_state"]


def _fleet_fingerprint(fleet) -> dict:
    return {
        "n": int(fleet._n),
        "size": int(fleet.size),
        "method": fleet._method,
        "max_candidates": fleet._max_candidates,
    }


def fleet_state(fleet) -> tuple[dict, dict]:
    """Every member's state plus the fleet's configuration fingerprint.

    A member's tester compiles are read from the fleet
    (:meth:`~repro.api.HistogramFleet.tester_compiles`), in the order
    they were compiled, under ``member/{f}/test/{j}/``; the stacks that
    hold them are not persisted.
    """
    members = []
    slabs: dict = {}
    for f in range(fleet.size):
        member_meta, member_slabs = _member_state(fleet, f)
        members.append(member_meta)
        for name, array in member_slabs.items():
            slabs[f"member/{f}/{name}"] = array
    return {**_fleet_fingerprint(fleet), "members": members}, slabs


def restore_fleet(fleet, meta: dict, slab) -> None:
    """Rebuild every member of a freshly constructed fleet."""
    _check_fingerprint("fleet", meta, _fleet_fingerprint(fleet))
    for f, member_meta in enumerate(meta["members"]):
        _check_member(fleet.bundle(f), member_meta)
    # Drop any existing warm state; every tester slot goes stale until
    # the member restore refills it.
    fleet.invalidate()
    for f, member_meta in enumerate(meta["members"]):
        _restore_member(fleet, f, member_meta, _scoped(slab, f"member/{f}/"))


# ------------------------------------------------------------------ #
# FleetMaintainer
# ------------------------------------------------------------------ #


def slab_member(name: str) -> int | None:
    """Which fleet member owns one maintainer-level slab (or ``None``).

    The maintainer's slab namespace is member-partitioned —
    ``fleet/member/{f}/...`` (the member tree), ``hist/{f}/...`` (the
    stored histogram), ``reservoir/{f}`` — which is what lets a
    differential checkpoint re-write only the slabs of members whose
    generation moved.  Names outside those prefixes (there are none
    today, but the seam is honest) report ``None`` and are always
    re-written.
    """
    for prefix in ("fleet/member/", "hist/", "reservoir/"):
        if name.startswith(prefix):
            return int(name[len(prefix) :].split("/", 1)[0])
    return None


def _maintainer_fingerprint(maintainer) -> dict:
    params = maintainer._params
    return {
        "fleet_size": int(maintainer.fleet_size),
        "n": int(maintainer._n),
        "k": int(maintainer._k),
        "epsilon": float(maintainer._epsilon),
        "reservoir_capacity": int(maintainer._reservoirs[0].capacity),
        "refresh_every": int(maintainer._refresh_every),
        "params": [
            int(params.weight_sample_size),
            int(params.collision_sets),
            int(params.collision_set_size),
            int(params.rounds),
        ],
    }


def maintainer_state(maintainer) -> tuple[dict, dict]:
    """Reservoirs, rebuild counters, stored histograms, and the fleet."""
    fleet_meta, fleet_slabs = fleet_state(maintainer._fleet)
    slabs = {f"fleet/{name}": array for name, array in fleet_slabs.items()}
    histograms = []
    for f, histogram in enumerate(maintainer._histograms):
        histograms.append(histogram is not None)
        if histogram is not None:
            slabs[f"hist/{f}/boundaries"] = histogram.boundaries
            slabs[f"hist/{f}/values"] = histogram.values
    for f, reservoir in enumerate(maintainer._reservoirs):
        slabs[f"reservoir/{f}"] = reservoir._items[: reservoir.size]
    meta = {
        **_maintainer_fingerprint(maintainer),
        "reservoir_seen": [int(r.seen) for r in maintainer._reservoirs],
        "items_seen": [int(v) for v in maintainer._items_seen],
        "since_rebuild": [int(v) for v in maintainer._since_rebuild],
        "stale": [bool(v) for v in maintainer._stale],
        "rebuilds": int(maintainer._rebuilds),
        "histograms": histograms,
        "fleet": fleet_meta,
    }
    return meta, slabs


def restore_maintainer(maintainer, meta: dict, slab) -> None:
    """Rebuild a freshly constructed maintainer's whole serving state."""
    _check_fingerprint("maintainer", meta, _maintainer_fingerprint(maintainer))
    restore_fleet(maintainer._fleet, meta["fleet"], _scoped(slab, "fleet/"))
    for f, reservoir in enumerate(maintainer._reservoirs):
        contents = slab(f"reservoir/{f}")
        reservoir._items[: contents.shape[0]] = contents
        reservoir._seen = int(meta["reservoir_seen"][f])
    maintainer._items_seen = [int(v) for v in meta["items_seen"]]
    maintainer._since_rebuild = [int(v) for v in meta["since_rebuild"]]
    maintainer._stale = [bool(v) for v in meta["stale"]]
    maintainer._rebuilds = int(meta["rebuilds"])
    histograms: list = []
    for f, built in enumerate(meta["histograms"]):
        if not built:
            histograms.append(None)
            continue
        histograms.append(
            TilingHistogram(
                maintainer._n,
                np.array(slab(f"hist/{f}/boundaries")),
                np.array(slab(f"hist/{f}/values")),
            )
        )
    maintainer._histograms = histograms
