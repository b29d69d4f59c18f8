"""Digest perfbench's reference logs, to compare two checkouts byte for byte.

Usage, from the root of a checkout::

    python benchmarks/reference_digest.py                 # seeds 1 and 7
    python benchmarks/reference_digest.py --seed 3 --workload relearn

For every perfbench workload and seed, this runs ``harness.reference``
from this checkout's own ``src`` and ``perfbench``.  That is the cold,
request-at-a-time replay whose ``canonical()`` response log every
measured replay must match.  It prints one line per run: the workload,
the seed, the sha256 of the canonical prefix and body logs, the samples
the body drew and, for a primed workload, the sha256 of the snapshot the
measured services warm-start from.

Run it in two checkouts and diff the outputs.  A change that must not
move a served byte leaves every line equal.  It is not a CI gate: the
digests depend on NumPy's random streams and float formatting, which an
unpinned NumPy may change.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("storm", "requery", "relearn")


def _digest(log: tuple) -> str:
    """sha256 of a canonical log: nested tuples of plain values, whose
    ``repr`` spells every float exactly."""
    return hashlib.sha256(repr(log).encode()).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--seed", type=int, action="append", help="a seed to run (repeatable; default 1 and 7)"
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=WORKLOADS,
        help="a workload to run (repeatable; default all three)",
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import harness
    import workloads

    for name in args.workload or WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed in args.seed or (1, 7):
            with tempfile.TemporaryDirectory(prefix="reference-digest-") as work_dir:
                reference = asyncio.run(
                    harness.reference(workload, workloads.plan(workload, seed), seed, work_dir)
                )
                primed = "" if reference.primed is None else (
                    f" primed={_file_digest(reference.primed)}"
                )
            print(
                f"{name} seed={seed} prefix={_digest(reference.prefix)} "
                f"body={_digest(reference.body)} samples={reference.samples}{primed}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
