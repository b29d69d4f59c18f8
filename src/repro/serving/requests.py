"""The serving layer's wire types: requests, responses, error taxonomy.

A :class:`Request` names a stream and an operation — ``ingest``,
``learn``, ``test`` (l1/l2), ``uniformity``, ``identity``, ``min_k``, or
``selectivity`` — with the operation's parameters normalised into
hashable fields.  Two things make the shape load-bearing for the
coalescer (:mod:`repro.serving.service`):

* :attr:`Request.signature` — the operation identity *excluding* the
  stream and any per-request payload.  Requests sharing a signature are
  the ones one fleet batch op can serve; requests on the same stream
  with different signatures must never be reordered (their pool draws
  interleave on the member's generator).
* :attr:`Request.mutates` — whether the request changes stream state
  (``ingest`` absorbs observations; ``learn`` at the maintainer's
  configured point commits the stored histogram).  A mutating request
  is an ordering barrier for its stream, and fences the response cache.

A :class:`Response` is the structured answer: ``ok`` plus the result
object, or a taxonomy-coded error (:func:`error_payload`) mapping the
library's exceptions — :class:`~repro.errors.EmptyStreamError`,
:class:`~repro.errors.InvalidParameterError`,
:class:`~repro.errors.OverloadedError`, ... — to stable codes a remote
client can dispatch on.  :func:`canonical` renders requests, responses,
and every result object the library returns into plain hashable
structures; the conformance suite compares coalesced and
request-at-a-time serving through it, byte for byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    EmptyStreamError,
    InjectedFaultError,
    InsufficientSamplesError,
    InvalidParameterError,
    OverloadedError,
    ReproError,
    ServiceClosedError,
    SnapshotError,
    UnknownStreamError,
)
from repro.histograms.priority import PriorityHistogram
from repro.histograms.tiling import TilingHistogram

OPS = (
    "ingest",
    "learn",
    "test",
    "uniformity",
    "identity",
    "min_k",
    "selectivity",
)

#: Non-mutating ops whose responses are a pure function of the stream's
#: sketch state — the response cache may serve repeats of these at
#: admission, keyed by the stream's generation epoch.  ``learn`` is
#: excluded: it can commit the stored histogram (a mutation), and its
#: result legitimately reflects that commit.
CACHEABLE_OPS = ("test", "uniformity", "identity", "min_k", "selectivity")


@dataclass(frozen=True)
class Request:
    """One client request against a named stream.

    Build through the classmethod constructors (:meth:`ingest`,
    :meth:`test`, ...) rather than the raw dataclass — they normalise
    payloads (ingest values become an int tuple, so requests stay
    hashable and traces stay byte-comparable) and keep unused fields
    ``None``.
    """

    op: str
    stream: str
    k: int | None = None
    epsilon: float | None = None
    norm: str | None = None
    max_k: int | None = None
    start: int | None = None
    stop: int | None = None
    reference: str | None = None
    values: tuple | None = None
    #: Latency budget in milliseconds, counted from admission; ``None``
    #: = no deadline.  Excluded from :attr:`signature` — a deadline
    #: changes *whether* a request runs, never which batch op serves it.
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        # Read on every submit (admission, cache, batch planner): built
        # once here, so every instance carries the same attributes.
        object.__setattr__(self, "_signature", self._build_signature())

    # ----------------------------- constructors ------------------- #

    @classmethod
    def ingest(cls, stream: str, values) -> "Request":
        """Absorb a batch of observations into ``stream``'s reservoir."""
        # tolist() keeps the payload hashable without coercing: a float
        # batch stays float, so the maintainer's one-pass dtype/range
        # validation still sees it (and rejects it with member context).
        flat = np.asarray(values).ravel().tolist()
        return cls(op="ingest", stream=stream, values=tuple(flat))

    @classmethod
    def learn(cls, stream: str, k: int | None = None, epsilon: float | None = None) -> "Request":
        """Learn a k-histogram summary of ``stream`` now."""
        return cls(op="learn", stream=stream, k=k, epsilon=epsilon)

    @classmethod
    def test(
        cls,
        stream: str,
        k: int | None = None,
        epsilon: float | None = None,
        *,
        norm: str = "l2",
    ) -> "Request":
        """Algorithm 2's tiling k-histogram verdict (``norm`` l1 or l2)."""
        return cls(op="test", stream=stream, k=k, epsilon=epsilon, norm=norm)

    @classmethod
    def uniformity(cls, stream: str, epsilon: float | None = None) -> "Request":
        """The [GR00] collision uniformity verdict."""
        return cls(op="uniformity", stream=stream, epsilon=epsilon)

    @classmethod
    def identity(
        cls, stream: str, reference: str, epsilon: float | None = None
    ) -> "Request":
        """l2 identity verdict against a reference registered by name."""
        return cls(op="identity", stream=stream, reference=reference, epsilon=epsilon)

    @classmethod
    def min_k(
        cls,
        stream: str,
        epsilon: float | None = None,
        *,
        max_k: int | None = None,
        norm: str = "l1",
    ) -> "Request":
        """Smallest credible bucket count for ``stream``."""
        return cls(op="min_k", stream=stream, epsilon=epsilon, max_k=max_k, norm=norm)

    @classmethod
    def selectivity(cls, stream: str, start: int, stop: int) -> "Request":
        """Estimated mass of ``[start, stop)`` under ``stream``'s summary."""
        return cls(op="selectivity", stream=stream, start=int(start), stop=int(stop))

    # ----------------------------- coalescing keys ---------------- #

    @property
    def signature(self) -> tuple:
        """The batchable operation identity (stream excluded).

        Requests with equal signatures are answered by one fleet batch
        op; per-request payloads that do not change *which* batch op
        runs (ingest values, selectivity bounds) are excluded, so one
        batch can carry many of them.
        """
        if self._signature is None:
            raise InvalidParameterError(f"unknown op {self.op!r}")
        return self._signature

    def _build_signature(self) -> "tuple | None":
        if self.op == "ingest":
            return ("ingest",)
        if self.op == "selectivity":
            return ("selectivity",)
        if self.op == "learn":
            return ("learn", self.k, self.epsilon)
        if self.op == "test":
            return ("test", self.norm, self.k, self.epsilon)
        if self.op == "uniformity":
            return ("uniformity", self.epsilon)
        if self.op == "identity":
            return ("identity", self.reference, self.epsilon)
        if self.op == "min_k":
            return ("min_k", self.norm, self.epsilon, self.max_k)
        return None

    @property
    def mutates(self) -> bool:
        """Whether this request may change its stream's state.

        ``ingest`` always does; ``learn`` does when it runs at the
        maintainer's configured operating point (the stored histogram —
        which ``selectivity`` reads — is refreshed).  The service treats
        every ``learn`` as mutating: a conservative fence costs a cache
        miss, a missed fence would serve a stale byte.
        """
        return self.op in ("ingest", "learn")

    @property
    def cache_key(self) -> tuple:
        """The response-cache identity of a cacheable request.

        :attr:`signature` plus the per-request payload fields the
        signature deliberately drops (selectivity bounds).  Only defined
        for :data:`CACHEABLE_OPS`; deadlines stay excluded — they gate
        *whether* a request runs, never what it answers.
        """
        if self.op == "selectivity":
            return ("selectivity", self.start, self.stop)
        return self.signature

    def with_deadline(self, deadline_ms: float | None) -> "Request":
        """This request carrying a latency budget (or shedding one).

        A non-``None`` budget must be a finite number of milliseconds,
        ``>= 0``; zero is legal and means "already expired", which the
        deadline tests use to exercise the rejection path
        deterministically.
        """
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if not np.isfinite(deadline_ms) or deadline_ms < 0:
                raise InvalidParameterError(
                    f"deadline_ms must be finite and >= 0, got {deadline_ms!r}"
                )
        return dataclasses.replace(self, deadline_ms=deadline_ms)


@dataclass(frozen=True)
class Response:
    """The structured answer to one :class:`Request`."""

    ok: bool
    op: str
    stream: str
    result: object | None = None
    error: "tuple | None" = None  # (code, message, retry_after)

    @property
    def error_code(self) -> str | None:
        """The taxonomy code (``"empty_stream"``, ...) or ``None``."""
        return self.error[0] if self.error is not None else None

    @property
    def retry_after(self) -> float | None:
        """Backoff hint in seconds, when the error carries one."""
        return self.error[2] if self.error is not None else None


# ------------------------------------------------------------------ #
# error taxonomy
# ------------------------------------------------------------------ #

# Most-derived first: the first match wins, so the specific serving
# codes shadow the broad InvalidParameterError bucket they subclass.
_TAXONOMY: tuple[tuple[type, str], ...] = (
    (EmptyStreamError, "empty_stream"),
    (UnknownStreamError, "unknown_stream"),
    (OverloadedError, "overloaded"),
    (ServiceClosedError, "service_closed"),
    (DeadlineExceededError, "deadline_exceeded"),
    (InjectedFaultError, "injected_fault"),
    (InsufficientSamplesError, "insufficient_samples"),
    (InvalidParameterError, "invalid_parameter"),
    (SnapshotError, "snapshot_error"),
    (ReproError, "internal"),
)


def error_code(exc: BaseException) -> str:
    """The stable taxonomy code for one library exception."""
    for cls, code in _TAXONOMY:
        if isinstance(exc, cls):
            return code
    raise TypeError(
        f"only ReproError subclasses map to the serving taxonomy, got "
        f"{type(exc).__name__}"
    )


def error_payload(exc: ReproError) -> tuple:
    """The ``Response.error`` triple for one library exception."""
    retry_after = getattr(exc, "retry_after", None)
    return (error_code(exc), str(exc), retry_after)


def error_response(request: Request, exc: ReproError) -> Response:
    """A failed :class:`Response` for ``request`` carrying ``exc``."""
    return Response(
        ok=False, op=request.op, stream=request.stream, error=error_payload(exc)
    )


# ------------------------------------------------------------------ #
# canonical form
# ------------------------------------------------------------------ #


def canonical(value: object) -> object:
    """``value`` as nested plain tuples — equality is byte-equality.

    Handles every result object the serving layer returns (learn/test/
    selection/uniformity/identity results, histograms, floats, ints)
    plus requests and responses themselves.  Two serving runs whose
    canonical response traces are equal returned byte-identical
    verdicts, histograms, and query logs.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, tuple(value.ravel().tolist()))
    if isinstance(value, TilingHistogram):
        return (
            "TilingHistogram",
            tuple(value.boundaries.tolist()),
            tuple(value.values.tolist()),
        )
    if isinstance(value, PriorityHistogram):
        return (
            "PriorityHistogram",
            value.n,
            tuple(
                (piece.interval.start, piece.interval.stop, piece.value, piece.priority)
                for piece in value.pieces()
            ),
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, canonical(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(
            (key, canonical(item)) for key, item in sorted(value.items())
        )
    raise TypeError(f"no canonical form for {type(value).__name__}")
