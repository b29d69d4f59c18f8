"""The asyncio serving layer: request coalescing over maintained fleets.

``repro.serving`` turns the fleet engines into a service: concurrent
clients submit :class:`Request` objects against named streams, a
bounded admission queue applies backpressure, and a coalescer folds
same-operation requests into :class:`~repro.streaming.FleetMaintainer`
batch ops — without changing a single byte of any answer relative to
request-at-a-time serving.  Requests can carry ``deadline_ms`` latency
budgets (aged-out work is skipped with a ``deadline_exceeded`` code) —
see ``README.md`` ("Serving", "Robustness") for the tour and
``examples/async_serving.py`` for a runnable walkthrough.
"""

from repro.serving.requests import (
    OPS,
    Request,
    Response,
    canonical,
    error_code,
    error_payload,
    error_response,
)
from repro.serving.service import HistogramService, ServiceConfig
from repro.serving.workload import (
    ReplayReport,
    WorkloadConfig,
    WorkloadGenerator,
    replay,
    trace_bytes,
)

__all__ = [
    "OPS",
    "HistogramService",
    "ReplayReport",
    "Request",
    "Response",
    "ServiceConfig",
    "WorkloadConfig",
    "WorkloadGenerator",
    "canonical",
    "error_code",
    "error_payload",
    "error_response",
    "replay",
    "trace_bytes",
]
