"""The concurrent multi-query ACQ driver (see package docstring).

Concurrency model: requests execute on a service-owned thread pool of
``workers`` threads, each running the ordinary
:class:`~repro.core.acquire.Acquire` driver against a registered
backend. Everything shared between requests is thread-safe by
construction — the backends' counting seams serialize on their
``_stats_lock``, the grid cache carries an internal lock, and
per-request attribution rides on the backends' request scopes
(:meth:`~repro.engine.backends.EvaluationLayer.request_scope`),
so concurrent requests report exactly the counters a serial replay
would. Service bookkeeping (:class:`ServiceStats`, the backend
registry, the closed flag) is guarded by one service lock.

Admission happens on the *submitting* thread: budget checks first,
then a slot on the bounded admission semaphore (``workers +
max_queue`` slots; the policy decides reject-vs-wait when none is
free). The slot is released when the request finishes — or, for a
request cancelled while still queued, by its future's done-callback —
so the semaphore bounds queued + in-flight work: classic bounded-queue
backpressure.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.grid_cache import DEFAULT_CACHE_BYTES, GridTensorCache
from repro.core.query import Query
from repro.core.result import AcquireResult
from repro.engine.backends import EvaluationLayer
from repro.exceptions import QueryModelError, ServiceError

DEFAULT_BACKEND = "default"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of :class:`AcquireService`.

    Attributes:
        workers: request-executing threads. Throughput scales with
            workers only on backends whose execution path releases the
            GIL (the sqlite backend does; see ``docs/SERVICE.md``).
        max_queue: admitted requests allowed to *wait* beyond the
            ``workers`` in flight; ``workers + max_queue`` bounds the
            service's total outstanding work.
        admission: backpressure policy when no slot is free —
            ``"reject"`` raises :class:`~repro.exceptions.ServiceError`
            (``reason="queue-full"``) immediately, ``"wait"`` blocks
            the submitter until a slot frees (or ``wait_timeout_s``
            expires, ``reason="timeout"``).
        wait_timeout_s: bound on the ``"wait"`` policy's block;
            ``None`` waits indefinitely.
        max_grid_queries_per_request: per-request query budget; each
            admitted request's ``max_grid_queries`` is clamped to it,
            so the driver's safety valve enforces the budget at
            runtime. ``None`` leaves the caller's value.
        max_rows_per_request: per-request row budget; requests whose
            largest referenced table exceeds it are rejected at
            admission (``reason="budget"``) — one backend pass over
            that table is the floor of the work the request would do.
            ``None`` disables the check.
        cache_bytes: byte budget of the shared
            :class:`~repro.core.grid_cache.GridTensorCache` injected
            into every request. ``0`` disables cache sharing — each
            request then keeps whatever cache its own config carries.
    """

    workers: int = 4
    max_queue: int = 16
    admission: str = "reject"
    wait_timeout_s: Optional[float] = None
    max_grid_queries_per_request: Optional[int] = None
    max_rows_per_request: Optional[int] = None
    cache_bytes: int = DEFAULT_CACHE_BYTES

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise QueryModelError("service workers must be >= 1")
        if self.max_queue < 0:
            raise QueryModelError("service max_queue must be >= 0")
        if self.admission not in ("reject", "wait"):
            raise QueryModelError(
                "service admission must be 'reject' or 'wait', "
                f"got {self.admission!r}"
            )
        if self.cache_bytes < 0:
            raise QueryModelError("service cache_bytes must be >= 0")


@dataclass
class ServiceStats:
    """Counters accumulated by one :class:`AcquireService`.

    ``submitted`` counts every :meth:`AcquireService.submit` call;
    ``admitted`` the subset that passed budgets and backpressure;
    ``completed``/``failed`` their outcomes, and ``cancelled`` the
    admitted requests whose future was cancelled before they ran.
    ``rejected_queue``, ``rejected_budget`` and ``timeouts`` break down
    refusals by reason, and ``peak_in_flight`` records the highest
    concurrent execution observed (``in_flight`` is the live gauge).
    """

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected_queue: int = 0
    rejected_budget: int = 0
    timeouts: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0

    def snapshot(self) -> "ServiceStats":
        return replace(self)

    def since(self, earlier: "ServiceStats") -> "ServiceStats":
        """Counter deltas relative to an earlier snapshot (every
        dataclass field, same no-drift discipline as
        :meth:`~repro.engine.backends.ExecutionStats.since`)."""
        return ServiceStats(
            **{
                field.name: getattr(self, field.name)
                - getattr(earlier, field.name)
                for field in fields(self)
            }
        )


def _execute_request(
    service: "AcquireService",
    driver: Acquire,
    query: Query,
    config: AcquireConfig,
) -> AcquireResult:
    """Pool task body (module-level so the task ships no instance)."""
    return service._run_admitted(driver, query, config)


class AcquireService:
    """Long-lived concurrent driver over registered backends.

    Register each shared :class:`EvaluationLayer` once, then submit
    ACQ requests from any thread::

        service = AcquireService(ServiceConfig(workers=4))
        service.register_backend("sales", layer)
        future = service.submit(query, config, backend="sales")
        result = future.result()

    Every admitted request runs with the service's shared grid cache
    injected into its config, so overlapping sweeps dedupe grid work
    across requests. :meth:`run` is the synchronous convenience
    wrapper; :meth:`close` drains and shuts the pool down (the service
    is also a context manager).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        #: Shared across every admitted request (None when sharing is
        #: disabled via ``cache_bytes=0``).
        self.grid_cache: Optional[GridTensorCache] = (
            GridTensorCache(self.config.cache_bytes)
            if self.config.cache_bytes > 0
            else None
        )
        self._lock = threading.Lock()
        self._stats = ServiceStats()
        self._backends: dict[str, tuple[EvaluationLayer, Acquire]] = {}
        self._closed = False
        self._slots = threading.BoundedSemaphore(
            self.config.workers + self.config.max_queue
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )

    # -- registry ----------------------------------------------------
    def register_backend(
        self, name: str, layer: EvaluationLayer
    ) -> None:
        """Make ``layer`` available to requests under ``name``.

        Re-registering a name replaces its layer (in-flight requests
        keep the driver they were admitted with).
        """
        driver = Acquire(layer)
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed", reason="closed")
            self._backends[name] = (layer, driver)

    def backend(self, name: str = DEFAULT_BACKEND) -> EvaluationLayer:
        """The registered layer for ``name`` (for tests/metrics)."""
        with self._lock:
            entry = self._backends.get(name)
        if entry is None:
            raise ServiceError(
                f"unknown backend {name!r}", reason="unknown-backend"
            )
        return entry[0]

    def backend_names(self) -> list[str]:
        with self._lock:
            return sorted(self._backends)

    # -- submission --------------------------------------------------
    def submit(
        self,
        query: Query,
        config: Optional[AcquireConfig] = None,
        *,
        backend: str = DEFAULT_BACKEND,
    ) -> "Future[AcquireResult]":
        """Admit one ACQ request; returns a future for its result.

        Raises :class:`~repro.exceptions.ServiceError` when admission
        refuses the request (``reason`` is ``"closed"``,
        ``"unknown-backend"``, ``"budget"``, ``"queue-full"`` or
        ``"timeout"``); an admitted request's own failure surfaces on
        the future instead.
        """
        base = config or AcquireConfig()
        with self._lock:
            self._stats.submitted += 1
            closed = self._closed
            entry = self._backends.get(backend)
        if closed:
            raise ServiceError("service is closed", reason="closed")
        if entry is None:
            raise ServiceError(
                f"unknown backend {backend!r}", reason="unknown-backend"
            )
        layer, driver = entry
        self._check_row_budget(layer, query)
        effective = self._effective_config(base)
        self._acquire_slot()
        try:
            with self._lock:
                self._stats.admitted += 1
            future = self._pool.submit(
                _execute_request, self, driver, query, effective
            )
            future.add_done_callback(self._release_if_cancelled)
        except BaseException:
            self._slots.release()
            raise
        return future

    def run(
        self,
        query: Query,
        config: Optional[AcquireConfig] = None,
        *,
        backend: str = DEFAULT_BACKEND,
    ) -> AcquireResult:
        """Synchronous :meth:`submit`."""
        return self.submit(query, config, backend=backend).result()

    # -- admission ---------------------------------------------------
    def _check_row_budget(
        self, layer: EvaluationLayer, query: Query
    ) -> None:
        budget = self.config.max_rows_per_request
        if budget is None:
            return
        database = getattr(layer, "database", None)
        if database is None:
            return
        largest = max(
            (
                database.table(name).nrows
                for name in query.tables
                if database.has_table(name)
            ),
            default=0,
        )
        if largest > budget:
            with self._lock:
                self._stats.rejected_budget += 1
            raise ServiceError(
                f"row budget exceeded: table scan floor {largest} rows "
                f"> budget {budget}",
                reason="budget",
            )

    def _effective_config(self, base: AcquireConfig) -> AcquireConfig:
        """The caller's config with the service's shared state wired in.

        The shared grid cache (when sharing is enabled) replaces
        whatever the caller set — cross-request dedupe is the
        service's contract — and the query budget clamps
        ``max_grid_queries``.
        """
        updates: dict = {}
        if self.grid_cache is not None:
            updates["grid_cache"] = self.grid_cache
        budget = self.config.max_grid_queries_per_request
        if budget is not None:
            updates["max_grid_queries"] = min(
                base.max_grid_queries, budget
            )
        return replace(base, **updates)

    def _acquire_slot(self) -> None:
        if self.config.admission == "reject":
            if not self._slots.acquire(blocking=False):
                with self._lock:
                    self._stats.rejected_queue += 1
                raise ServiceError(
                    "admission queue is full "
                    f"({self.config.workers} workers + "
                    f"{self.config.max_queue} queued)",
                    reason="queue-full",
                )
            return
        timeout = self.config.wait_timeout_s
        if not self._slots.acquire(timeout=timeout):
            with self._lock:
                self._stats.timeouts += 1
            raise ServiceError(
                f"no admission slot within {timeout}s", reason="timeout"
            )

    # -- execution ---------------------------------------------------
    def _run_admitted(
        self, driver: Acquire, query: Query, config: AcquireConfig
    ) -> AcquireResult:
        with self._lock:
            self._stats.in_flight += 1
            if self._stats.in_flight > self._stats.peak_in_flight:
                self._stats.peak_in_flight = self._stats.in_flight
        try:
            result = driver.run(query, config)
        except BaseException:
            with self._lock:
                self._stats.failed += 1
                self._stats.in_flight -= 1
            self._slots.release()
            raise
        with self._lock:
            self._stats.completed += 1
            self._stats.in_flight -= 1
        self._slots.release()
        return result

    def _release_if_cancelled(self, future: Future) -> None:
        """Done-callback: return the slot of a request cancelled while
        queued. A cancelled future never runs :meth:`_run_admitted`
        (and a running one cannot be cancelled), so exactly one of the
        two releases each admitted request's slot."""
        if future.cancelled():
            with self._lock:
                self._stats.cancelled += 1
            self._slots.release()

    # -- lifecycle / metrics -----------------------------------------
    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters."""
        with self._lock:
            return self._stats.snapshot()

    def close(self, wait: bool = True) -> None:
        """Stop admitting requests and shut the worker pool down.

        Idempotent. With ``wait=True`` (default) blocks until admitted
        requests finish.
        """
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
        if not already:
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "AcquireService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
