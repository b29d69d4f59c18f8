"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidDistributionError(ReproError):
    """A probability vector is malformed (negative mass, wrong shape,
    or does not sum to one within tolerance)."""


class InvalidIntervalError(ReproError):
    """An interval is malformed (empty where not allowed, reversed
    endpoints, or out of the domain ``[0, n)``)."""


class InvalidHistogramError(ReproError):
    """A histogram representation violates its invariants (overlapping
    tiles, uncovered domain for a tiling histogram, negative values)."""


class InvalidParameterError(ReproError):
    """An algorithm parameter is out of its documented range
    (e.g. ``epsilon`` outside ``(0, 1)`` or non-positive ``k``)."""


class InsufficientSamplesError(ReproError):
    """An estimator was asked for a quantity its sample set cannot
    support (e.g. a collision estimate from fewer than two samples
    when ``strict=True``)."""


class EmptyStreamError(InvalidParameterError):
    """A streaming maintainer was probed (``test()``, ``min_k()``, or
    ``histogram``) before its reservoir absorbed any observation.

    Subclasses :class:`InvalidParameterError` so existing callers that
    catch the broader class keep working, while new code can handle the
    probe-too-early case precisely instead of seeing a stale-pool
    failure from deeper in the sampling stack."""


class UnknownStreamError(InvalidParameterError):
    """A serving request named a stream the service does not host.

    Subclasses :class:`InvalidParameterError` for the same reason
    :class:`EmptyStreamError` does: broad handlers keep working, while
    the serving layer maps this case to its own structured error code."""


class OverloadedError(ReproError):
    """The serving admission queue is full; the request was rejected.

    Carries ``retry_after`` (seconds), the service's hint for when the
    caller should resubmit.  This is an *admission* failure — nothing
    about the request itself is wrong, and resubmitting later is always
    legitimate."""

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServiceClosedError(ReproError):
    """A request was submitted to a serving layer that is draining or
    has shut down.  Unlike :class:`OverloadedError` there is no point
    retrying against the same service instance."""


class DeadlineExceededError(ReproError):
    """A request's ``deadline_ms`` budget expired before it executed.

    Raised (and mapped to the ``deadline_exceeded`` response code) at
    admission when the budget is already spent, or pre-execution when a
    request aged out while queued behind a window.  The work was *not*
    performed — a caller that still wants the answer resubmits with a
    fresh budget."""


class SnapshotError(ReproError):
    """A snapshot file cannot be restored (and a cold rebuild should run).

    Raised by :mod:`repro.persist` on any malformed-snapshot condition —
    missing file, bad magic, format-version or kind mismatch, truncated
    payload, checksum mismatch, or a configuration fingerprint that does
    not match the restoring instance.  Carries ``reason``, a short
    stable code naming the condition; every restore seam catches this
    and falls back to a cold rebuild, never a crash."""

    def __init__(self, message: str, *, reason: str = "invalid") -> None:
        super().__init__(message)
        self.reason = str(reason)


class InjectedFaultError(ReproError):
    """A deterministic chaos fault fired (:class:`repro.utils.faults.FaultPlan`).

    Only ever raised by test/chaos seams — a sample source wrapped by
    :meth:`~repro.utils.faults.FaultPlan.wrap_source`, for instance —
    never by production code paths.  Subclasses :class:`ReproError` so
    the serving layer maps it to a structured response like any other
    library failure instead of crashing the collector."""
