"""Open/closed-loop load generation against an :class:`AcquireService`.

Two arrival models, both over explicit request lists so runs are
deterministic apart from scheduling:

* **closed loop** (:func:`run_closed_loop`): ``concurrency`` client
  threads each submit their next request as soon as the previous one
  completes — the classic throughput-probe shape ("how many requests
  per second can W workers sustain?").
* **open loop** (:func:`run_open_loop`): one arrival thread submits at
  a fixed inter-arrival gap regardless of completions — the shape that
  exposes backpressure (queue-full rejections, wait timeouts). Under
  the reject policy arrivals do not slow down when the service
  saturates; under the wait policy later arrivals queue behind the
  blocked submit, and each is still timed from its due time.

:func:`sample_corpus_requests` draws realized triples from the
gold-standard corpus manifest so generated traffic has the answer
distribution of real ACQs; ``duplicate_fraction`` re-issues a suffix of
the sample against the *same* backend with a jittered constraint
target, which exercises the shared grid cache's target-independent
keys (the duplicate's tile tensors are served from cache even though
its target differs — cross-request dedupe).
"""

from __future__ import annotations

import math
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from repro.core.acquire import AcquireConfig
from repro.core.query import Query
from repro.core.result import AcquireResult
from repro.exceptions import CorpusError, ServiceError
from repro.service.service import AcquireService, ServiceStats

#: A prepared request: backend name, query, per-request config.
Request = tuple[str, Query, AcquireConfig]


@dataclass
class RequestRecord:
    """Outcome of one generated request."""

    index: int
    backend: str
    latency_s: float = 0.0
    #: Open loop only: how late the request's submit was.
    lag_s: float = 0.0
    completed: bool = False
    satisfied: bool = False
    rejected_reason: str = ""
    queries_executed: int = 0
    rows_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class LoadReport:
    """Aggregated outcome of one load-generation run."""

    records: list[RequestRecord] = field(default_factory=list)
    wall_s: float = 0.0
    service: Optional[ServiceStats] = None

    @property
    def completed(self) -> int:
        return sum(1 for record in self.records if record.completed)

    @property
    def rejected(self) -> int:
        return sum(1 for record in self.records if record.rejected_reason)

    @property
    def throughput_rps(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.completed / self.wall_s

    @property
    def latencies_ms(self) -> list[float]:
        return sorted(
            record.latency_s * 1000.0
            for record in self.records
            if record.completed
        )

    def latency_ms(self, quantile: float) -> float:
        return percentile(self.latencies_ms, quantile)

    @property
    def cache_hits(self) -> int:
        return sum(record.cache_hits for record in self.records)

    @property
    def cache_misses(self) -> int:
        return sum(record.cache_misses for record in self.records)

    @property
    def queries_executed(self) -> int:
        """Total backend queries issued across completed requests."""
        return sum(record.queries_executed for record in self.records)


def percentile(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 if empty)."""
    if not ordered:
        return 0.0
    if not 0.0 <= quantile <= 1.0:
        raise CorpusError(f"quantile must be in [0, 1], got {quantile}")
    rank = max(int(math.ceil(quantile * len(ordered))) - 1, 0)
    return float(ordered[rank])


# ---------------------------------------------------------------------
# Corpus-sampled traffic


def sample_corpus_requests(
    service: AcquireService,
    count: int,
    seed: int = 7,
    duplicate_fraction: float = 0.5,
    families: Optional[Sequence[str]] = None,
) -> list[Request]:
    """Register corpus backends on ``service`` and build a request mix.

    Draws ``count`` distinct manifest triples (optionally restricted to
    ``families``), realizes each one, registers its database as a
    service backend named by the triple id, and returns one request per
    triple **plus** duplicates for the last ``duplicate_fraction`` of
    the sample (fractions above 1 cycle through that tail, so a
    duplicate-*heavy* mix is one call). A duplicate targets the same
    backend with the same refinable shape but a slightly jittered
    constraint target, so its grid/tile tensors — keyed independently
    of the target — are served from the shared cache that the original
    populated: any shared-cache hit the run reports is cross-request
    dedupe at work. Each request keeps its realized config: under the
    service's shared cache, ``auto`` plans the whole-grid engine, which
    reads and writes block tensors there.
    """
    from repro.corpus.generator import realize
    from repro.corpus.manifest import DEFAULT_MANIFEST_PATH, load_manifest
    from repro.engine.memory_backend import MemoryBackend

    triples = list(load_manifest(DEFAULT_MANIFEST_PATH).triples)
    if families:
        wanted = set(families)
        triples = [
            triple for triple in triples
            if triple.spec.family in wanted
        ]
    if not triples:
        raise CorpusError("no manifest triples match the requested families")
    rng = random.Random(seed)
    chosen = rng.sample(triples, min(count, len(triples)))
    requests: list[Request] = []
    for triple in chosen:
        database, query, config = realize(triple.spec)
        name = triple.spec.triple_id
        service.register_backend(name, MemoryBackend(database))
        requests.append((name, query, config))
    duplicates = int(len(requests) * duplicate_fraction)
    if duplicates:
        total = len(requests)
        start = total - min(duplicates, total)
        dups_by_original: dict[int, list[Request]] = {}
        for index in range(duplicates):
            source = start + index % (total - start)
            name, query, config = requests[source]
            dups_by_original.setdefault(source, []).append(
                (name, _jitter_target(query, rng), config)
            )
        for source in sorted(dups_by_original):
            requests.extend(dups_by_original[source])
    return requests


def _jitter_target(query: Query, rng: random.Random) -> Query:
    """The same ACQ with its constraint target nudged by up to 2%.

    The grid cache key ignores the target, so a jittered duplicate
    still dedupes against the original's tensors while asking a
    genuinely different question.
    """
    constraint = query.constraint
    target = constraint.target
    nudged = target * (1.0 + rng.uniform(-0.02, 0.02))
    if isinstance(target, int):
        nudged = max(int(round(nudged)), 1)
    return query.with_constraint(replace(constraint, target=nudged))


# ---------------------------------------------------------------------
# Arrival models


def _issue(
    service: AcquireService,
    index: int,
    request: Request,
) -> RequestRecord:
    """Submit one request synchronously and record its outcome."""
    backend, query, config = request
    record = RequestRecord(index=index, backend=backend)
    started = time.perf_counter()
    try:
        result = service.run(query, config, backend=backend)
    except ServiceError as error:
        record.latency_s = time.perf_counter() - started
        record.rejected_reason = error.reason
        return record
    record.latency_s = time.perf_counter() - started
    _record_result(record, result)
    return record


def _record_result(record: RequestRecord, result: AcquireResult) -> None:
    """Copy a completed request's outcome and work counters."""
    record.completed = True
    record.satisfied = result.satisfied
    execution = result.stats.execution
    record.queries_executed = execution.queries_executed
    record.rows_scanned = execution.rows_scanned
    record.cache_hits = execution.cache_hits
    record.cache_misses = execution.cache_misses


def _closed_loop_client(
    service: AcquireService,
    iterator: Iterator[tuple[int, Request]],
    guard: threading.Lock,
    records: list[RequestRecord],
    on_record: Optional[Callable[[RequestRecord], None]],
) -> None:
    """One closed-loop client: drain the shared iterator to exhaustion."""
    while True:
        with guard:
            item = next(iterator, None)
        if item is None:
            return
        index, request = item
        record = _issue(service, index, request)
        with guard:
            records.append(record)
        if on_record is not None:
            on_record(record)


def run_closed_loop(
    service: AcquireService,
    requests: Sequence[Request],
    concurrency: int,
    on_record: Optional[Callable[[RequestRecord], None]] = None,
) -> LoadReport:
    """``concurrency`` clients, each submitting its next request the
    moment the previous one completes."""
    before = service.stats()
    iterator = iter(list(enumerate(requests)))
    guard = threading.Lock()
    records: list[RequestRecord] = []

    started = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max(int(concurrency), 1),
        thread_name_prefix="repro-loadgen",
    ) as pool:
        futures = [
            pool.submit(
                _closed_loop_client,
                service,
                iterator,
                guard,
                records,
                on_record,
            )
            for _ in range(max(int(concurrency), 1))
        ]
        for future in futures:
            future.result()
    wall = time.perf_counter() - started
    records.sort(key=lambda record: record.index)
    return LoadReport(
        records=records,
        wall_s=wall,
        service=service.stats().since(before),
    )


def run_open_loop(
    service: AcquireService,
    requests: Sequence[Request],
    inter_arrival_s: float,
) -> LoadReport:
    """Submit at a fixed arrival gap, independent of completions.

    The calling thread is the only arrival thread: it calls
    ``service.submit`` for request ``i`` once ``i * inter_arrival_s``
    has passed, and each request is timed from that *due* time to its
    future's completion. A submit that blocks (the wait admission
    policy, or any stall of the generator itself) therefore shows up
    in the latency of every request it delays, and each record keeps
    how late its submit was (``lag_s``).

    Under the wait policy a saturated service blocks ``submit``, and
    every later arrival queues behind that blocked call, in order,
    until a slot frees; its wait counts in its latency because the
    clock starts at its due time. Under the reject policy arrivals
    never slow down: refusals (queue-full, budget) are recorded as
    rejected rather than retried, which is what makes this arm surface
    the backpressure policy. An admitted request that failed re-raises
    its error once every request is done.
    """
    before = service.stats()
    records: list[RequestRecord] = [
        RequestRecord(index=index, backend=request[0])
        for index, request in enumerate(requests)
    ]
    admitted: list[tuple[RequestRecord, Future[AcquireResult]]] = []
    # Released by each done-callback after it stamps the latency: a
    # future reports done to waiters before its callbacks run.
    finished = threading.Semaphore(0)
    gap = max(inter_arrival_s, 0.0)
    started = time.perf_counter()
    for index, (backend, query, config) in enumerate(requests):
        record = records[index]
        due = started + index * gap
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record.lag_s = time.perf_counter() - due
        try:
            future = service.submit(query, config, backend=backend)
        except ServiceError as error:
            record.latency_s = time.perf_counter() - due
            record.rejected_reason = error.reason
            continue
        admitted.append((record, future))
        future.add_done_callback(partial(_stamp, record, due, finished))
    for _ in admitted:
        finished.acquire()
    wall = time.perf_counter() - started
    for record, future in admitted:
        try:
            _record_result(record, future.result())
        except ServiceError as error:
            record.rejected_reason = error.reason
    return LoadReport(
        records=records,
        wall_s=wall,
        service=service.stats().since(before),
    )


def _stamp(
    record: RequestRecord,
    due: float,
    finished: threading.Semaphore,
    future: Future[AcquireResult],
) -> None:
    """Done-callback: the request's latency, from its due time."""
    record.latency_s = time.perf_counter() - due
    finished.release()
