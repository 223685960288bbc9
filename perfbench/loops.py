"""Request loops and latency statistics for the repository benchmark.

Two arrival models drive the system from outside:

* :func:`closed_loop` — one client on the calling thread; the next
  search starts when the previous one returns.
* :func:`open_loop` — one generator thread submits to an
  :class:`~repro.service.AcquireService` on a fixed schedule, whether or
  not earlier requests have finished. Every request is timed from the
  moment it was *due*, so a stalled generator shows up as latency of the
  requests it delayed, and the generator's own lateness is kept per
  request (``lag``).

Answers are checked after the timed region (see ``workloads.py``); the
loops only record results, exceptions and refusals.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.exceptions import ServiceError


@dataclass
class Outcome:
    """What happened to one request."""

    index: int
    due: float = 0.0
    sent: float = 0.0
    end: float = 0.0
    result: Any = None
    error: str = ""
    refused: str = ""
    wrong: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due

    @property
    def failed(self) -> bool:
        return bool(self.error or self.refused or self.wrong)


def closed_loop(
    jobs: Sequence[Callable[[], Any]],
    order: Sequence[int],
    before: Callable[[int], None],
    first: int,
) -> list[Outcome]:
    """Run ``jobs[i]`` for each ``i`` of ``order``, one after another.

    Each job is a no-argument callable returning an ``AcquireResult``;
    ``before`` runs ahead of each, outside its timing, and gets request
    numbers counted from ``first``. Returns the outcomes; ``index`` is
    the job's position in ``jobs``.
    """
    outcomes: list[Outcome] = []
    for index in order:
        before(first + len(outcomes))
        outcome = Outcome(index)
        outcome.due = outcome.sent = time.perf_counter()
        try:
            outcome.result = jobs[index]()
        except Exception as error:  # noqa: BLE001 - counted as failed
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.end = time.perf_counter()
        outcomes.append(outcome)
    return outcomes


#: ``open_loop`` calls ``idle`` only with this long to spare before the
#: next request is due: several probe times even in a slow spell.
IDLE_MARGIN_S = 0.03


def open_loop(
    service: Any,
    requests: Sequence[tuple[str, Any, Any]],
    rate_rps: float,
    idle: Callable[[], None],
    before: Optional[Callable[[int], None]] = None,
) -> list[Outcome]:
    """Submit ``requests`` at ``rate_rps`` from the calling thread.

    ``requests`` are ``(backend, query, config)`` triples. A request the
    service refuses (``ServiceError`` raised by ``submit``) is recorded
    with its reason and not retried. ``idle`` runs on this thread while
    no admitted request is unfinished and the next is not due for
    ``IDLE_MARGIN_S``, so it competes with no request. Returns once
    every admitted request has finished.
    """
    gap = 1.0 / rate_rps
    outcomes = [Outcome(index) for index in range(len(requests))]
    # Released by each done-callback; a future reports done to waiters
    # before its callbacks run, so waiting on futures would race the
    # completion stamp.
    finished = threading.Semaphore(0)
    admitted = done = 0
    origin = time.perf_counter() + 0.01
    for index, (backend, query, config) in enumerate(requests):
        outcome = outcomes[index]
        outcome.due = origin + index * gap
        # Until the request is nearly due, collect completions; once
        # every admitted request has finished, run ``idle`` once.
        while True:
            spare = outcome.due - time.perf_counter() - IDLE_MARGIN_S
            if spare <= 0:
                break
            if done == admitted:
                idle()
                break
            if finished.acquire(timeout=spare):
                done += 1
        delay = outcome.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if before is not None:
            before(index)
        outcome.sent = time.perf_counter()
        try:
            future = service.submit(query, config, backend=backend)
        except ServiceError as error:
            outcome.end = time.perf_counter()
            outcome.refused = str(getattr(error, "reason", "")) or str(error)
            continue
        admitted += 1
        future.add_done_callback(
            lambda future, outcome=outcome: _finish(outcome, future, finished)
        )
    for _ in range(admitted - done):
        finished.acquire()
    return outcomes


def _finish(
    outcome: Outcome, future: Future, finished: threading.Semaphore
) -> None:
    """Done-callback: stamp the completion time, keep result or error."""
    outcome.end = time.perf_counter()
    error = future.exception()
    if error is None:
        outcome.result = future.result()
    else:
        outcome.error = f"{type(error).__name__}: {error}"
    finished.release()


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(int(math.ceil(fraction * len(ordered))), 1)
    return ordered[rank - 1]


#: The tail percentile keeps at least this many samples above it.
TAIL_BEYOND = 10


def tail(ordered: Sequence[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile that still has
    ``TAIL_BEYOND`` samples above it: ``(value, percentile)``. With
    ``TAIL_BEYOND`` or fewer samples this degrades to the maximum."""
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)
