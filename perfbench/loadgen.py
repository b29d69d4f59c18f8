"""Load generators: the open loop, the closed loop, and set-up submission.

All three share the service's event loop, as one process must.  Each
creates its submit tasks in trace order, and ``HistogramService.submit``
admits a request before its first suspension, so admission order equals
trace order and every response can be compared with the
request-at-a-time reference.  Nothing is retried: a refused submit is a
failure.

``steps`` wraps each coroutine a generator runs; the traced run passes
:meth:`ledger.Ledger.steps` to bill the generators' own work to ``bench``,
tagging a coroutine that serves one request with its id (the body index,
or ``setup-<index>`` for a set-up request).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import OverloadedError


def untraced(coroutine, name, rid=None):
    """The ``steps`` of an untraced replay: ``coroutine`` unchanged."""
    return coroutine


@dataclass
class Outcome:
    """What one replay of a trace body measured.

    ``responses[i]`` is the response to body request ``i`` (``None`` if
    the submit was refused), ``latencies`` the seconds from each
    completed request's scheduled send (open loop) or its submit (closed
    loop) to its response, and ``lags`` how late each open-loop send
    went out.
    """

    responses: list
    latencies: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    refused: int = 0
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        """Error responses plus refused submits."""
        return sum(1 for response in self.responses if response is None or not response.ok)


async def submit_all(service, requests, steps=untraced) -> list:
    """Admit ``requests`` at once, in order, and await every response."""
    return await asyncio.gather(
        *(
            steps(service.submit(request), "bench", f"setup-{index}")
            for index, request in enumerate(requests)
        )
    )


async def open_loop(service, body, offered_rps: float, steps=untraced) -> Outcome:
    """Send each ``(at_us, request)`` at its scaled time; never wait for replies.

    The trace's ``at_us`` offsets are scaled so the whole body is offered
    at a mean of ``offered_rps``, keeping the trace's own gaps and storms.
    Latency is timed from the *scheduled* send, so a stall also counts
    against every request due during it.
    """
    first, last = body[0][0], body[-1][0]
    span_s = len(body) / offered_rps
    scale = span_s / ((last - first) * 1e-6) if last > first else 0.0
    outcome = Outcome(responses=[None] * len(body))
    loop = asyncio.get_running_loop()

    async def send(index, request, due):
        outcome.lags.append(perf_counter() - due)
        try:
            response = await service.submit(request)
        except OverloadedError:
            outcome.refused += 1
            return
        outcome.latencies.append(perf_counter() - due)
        outcome.responses[index] = response

    async def generate():
        tasks = []
        started = perf_counter()
        for index, (at_us, request) in enumerate(body):
            due = started + (at_us - first) * 1e-6 * scale
            # Always yield, so sends already due start before later ones
            # are scheduled.
            await asyncio.sleep(max(due - perf_counter(), 0.0))
            tasks.append(
                loop.create_task(steps(send(index, request, due), "bench", index))
            )
        return started, tasks

    started, tasks = await steps(generate(), "bench")
    await asyncio.gather(*tasks)
    outcome.wall_s = perf_counter() - started
    return outcome


async def closed_loop(service, body, clients: int, steps=untraced) -> Outcome:
    """``clients`` callers share the body in order, each awaiting its reply."""
    outcome = Outcome(responses=[None] * len(body))
    cursor = 0

    async def client():
        nonlocal cursor
        while cursor < len(body):
            index = cursor
            cursor += 1
            sent = perf_counter()
            try:
                response = await service.submit(body[index][1])
            except OverloadedError:
                outcome.refused += 1
                continue
            outcome.latencies.append(perf_counter() - sent)
            outcome.responses[index] = response

    started = perf_counter()
    await asyncio.gather(*(steps(client(), "bench") for _ in range(clients)))
    outcome.wall_s = perf_counter() - started
    return outcome
