"""Small shared utilities: RNG handling, prefix sums, tables, timing,
and deterministic fault injection."""

from repro.utils.faults import FaultySource
from repro.utils.prefix import (
    interval_sums,
    pairs_count,
    prefix_sums,
)
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.tables import format_markdown_table
from repro.utils.timing import Timer

__all__ = [
    "FaultySource",
    "Timer",
    "as_rng",
    "format_markdown_table",
    "interval_sums",
    "pairs_count",
    "prefix_sums",
    "spawn_rngs",
]
