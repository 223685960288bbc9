"""Unit tests for :mod:`repro.service`: admission, budgets, lifecycle.

The backpressure tests pin the worker pool down with a monkeypatched
request body (an :class:`threading.Event` the test controls), so slot
exhaustion is deterministic rather than a race against real searches.
Everything that *executes* an ACQ uses a tiny in-memory workload.
"""

import threading
import time
from concurrent.futures import Future
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import repro.service.service as service_module
from repro.core.acquire import Acquire, AcquireConfig
from repro.engine.backends import ExecutionStats
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.exceptions import (
    CorpusError,
    EngineError,
    QueryModelError,
    ServiceError,
)
from repro.service import (
    AcquireService,
    ServiceConfig,
    ServiceStats,
    percentile,
    run_closed_loop,
    run_open_loop,
)
from repro.service.loadgen import RequestRecord, _jitter_target
from tests.conftest import FailingBackend, answer_key, count_query


def _db(seed: int = 11, n: int = 400) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "data",
        {"x": rng.uniform(0, 100, n), "y": rng.uniform(0, 100, n)},
    )
    return database


def _query(database=None, target: int = 120):
    return count_query("data", {"x": 30.0, "y": 30.0}, target=target)


class BlockingGridBackend(MemoryBackend):
    """MemoryBackend whose grid pass sets ``entered`` and then blocks
    until the test sets ``release``; every other pass runs normally."""

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _grid_pass(self, prepared, space, lo, hi, shell=None):
        self.entered.set()
        if not self.release.wait(timeout=30.0):
            raise EngineError("grid pass never released")
        return super()._grid_pass(prepared, space, lo, hi, shell=shell)


@pytest.fixture
def service():
    instance = AcquireService(ServiceConfig(workers=2, max_queue=4))
    instance.register_backend("default", MemoryBackend(_db()))
    yield instance
    instance.close()


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_queue": -1},
            {"admission": "shed"},
            {"cache_bytes": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(QueryModelError):
            ServiceConfig(**kwargs)

    def test_cache_sharing_disabled_at_zero_bytes(self):
        with AcquireService(ServiceConfig(cache_bytes=0)) as instance:
            assert instance.grid_cache is None

    def test_shared_state_injected_into_config(self):
        with AcquireService(
            ServiceConfig(max_grid_queries_per_request=5)
        ) as instance:
            effective = instance._effective_config(
                AcquireConfig(max_grid_queries=10_000)
            )
            assert effective.grid_cache is instance.grid_cache
            assert effective.max_grid_queries == 5


class TestAdmission:
    def test_unknown_backend(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.run(_query(), backend="nope")
        assert excinfo.value.reason == "unknown-backend"

    def test_closed_service_refuses(self, service):
        service.close()
        with pytest.raises(ServiceError) as excinfo:
            service.run(_query())
        assert excinfo.value.reason == "closed"
        with pytest.raises(ServiceError) as excinfo:
            service.register_backend("late", MemoryBackend(_db()))
        assert excinfo.value.reason == "closed"

    def test_row_budget_rejects_oversized_request(self):
        with AcquireService(
            ServiceConfig(max_rows_per_request=100)
        ) as instance:
            instance.register_backend("default", MemoryBackend(_db(n=400)))
            with pytest.raises(ServiceError) as excinfo:
                instance.run(_query())
            assert excinfo.value.reason == "budget"
            stats = instance.stats()
            assert stats.rejected_budget == 1
            assert stats.admitted == 0

    def test_row_budget_admits_within_bound(self):
        with AcquireService(
            ServiceConfig(max_rows_per_request=1_000)
        ) as instance:
            instance.register_backend("default", MemoryBackend(_db(n=400)))
            result = instance.run(_query())
            assert result.satisfied


class _Gate:
    """Monkeypatched request body: blocks until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def __call__(self, service, driver, query, config):
        self.entered.release()
        assert self.release.wait(timeout=30.0)
        return service._run_admitted_stub()


def _stub_result():
    """The fields of an AcquireResult the load generators read."""
    execution = SimpleNamespace(
        queries_executed=0, rows_scanned=0, cache_hits=0, cache_misses=0,
    )
    return SimpleNamespace(
        satisfied=True, stats=SimpleNamespace(execution=execution)
    )


def _stub_run_admitted(instance):
    """Count a gated request as completed and free its slot."""
    with instance._lock:
        instance._stats.completed += 1
    instance._slots.release()
    return _stub_result()


class _StallingService:
    """Stub service: completes every request at once, except that its
    first ``submit`` (or ``run``) stalls the calling thread."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.threads: set[int] = set()
        self._stalled = threading.Event()

    def stats(self) -> ServiceStats:
        return ServiceStats()

    def submit(self, query, config=None, *, backend="default") -> Future:
        self.threads.add(threading.get_ident())
        if not self._stalled.is_set():
            self._stalled.set()
            time.sleep(self.stall_s)
        future: Future = Future()
        future.set_result(_stub_result())
        return future

    def run(self, query, config=None, *, backend="default"):
        return self.submit(query, config, backend=backend).result()


class TestBackpressure:
    @pytest.fixture
    def gate(self, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(service_module, "_execute_request", gate)
        monkeypatch.setattr(
            AcquireService,
            "_run_admitted_stub",
            _stub_run_admitted,
            raising=False,
        )
        return gate

    def test_reject_policy_queue_full(self, gate):
        instance = AcquireService(ServiceConfig(workers=1, max_queue=1))
        instance.register_backend("default", MemoryBackend(_db()))
        try:
            futures = [instance.submit(_query()) for _ in range(2)]
            with pytest.raises(ServiceError) as excinfo:
                instance.submit(_query())
            assert excinfo.value.reason == "queue-full"
            gate.release.set()
            for future in futures:
                future.result(timeout=30.0)
            stats = instance.stats()
            assert stats.submitted == 3
            assert stats.admitted == 2
            assert stats.completed == 2
            assert stats.rejected_queue == 1
        finally:
            gate.release.set()
            instance.close()

    def test_cancelled_queued_requests_return_their_slots(self, gate):
        """A request cancelled while queued never runs, so its slot must
        come back through the future, not the request body."""
        instance = AcquireService(ServiceConfig(workers=1, max_queue=2))
        instance.register_backend("default", MemoryBackend(_db()))
        try:
            running = instance.submit(_query())
            assert gate.entered.acquire(timeout=30.0)
            queued = [instance.submit(_query()) for _ in range(2)]
            assert all(future.cancel() for future in queued)
            # Both slots came back: two more requests are admitted.
            later = [instance.submit(_query()) for _ in range(2)]
            stats = instance.stats()
            assert stats.admitted == 5
            assert stats.cancelled == 2
            gate.release.set()
            for future in [running, *later]:
                future.result(timeout=30.0)
            stats = instance.stats()
            assert stats.completed == 3
            assert stats.failed == 0
        finally:
            gate.release.set()
            instance.close()

    def test_wait_policy_times_out(self, gate):
        instance = AcquireService(
            ServiceConfig(
                workers=1, max_queue=0,
                admission="wait", wait_timeout_s=0.05,
            )
        )
        instance.register_backend("default", MemoryBackend(_db()))
        try:
            future = instance.submit(_query())
            with pytest.raises(ServiceError) as excinfo:
                instance.submit(_query())
            assert excinfo.value.reason == "timeout"
            assert instance.stats().timeouts == 1
            gate.release.set()
            future.result(timeout=30.0)
        finally:
            gate.release.set()
            instance.close()

    def test_wait_policy_blocks_until_slot_frees(self, gate):
        instance = AcquireService(
            ServiceConfig(workers=1, max_queue=0, admission="wait")
        )
        instance.register_backend("default", MemoryBackend(_db()))
        try:
            first = instance.submit(_query())
            assert gate.entered.acquire(timeout=30.0)
            releaser = threading.Timer(0.05, gate.release.set)
            releaser.start()
            second = instance.submit(_query())  # blocks until slot frees
            first.result(timeout=30.0)
            second.result(timeout=30.0)
            releaser.join()
            assert instance.stats().completed == 2
        finally:
            gate.release.set()
            instance.close()


    def test_grid_pass_slower_than_wait_timeout(self):
        """The only slot is held by a request whose grid pass outlasts
        ``wait_timeout_s``: the next submit times out. Released, the
        pass completes its request and leaves no cache flight, the
        per-request counters close the layer's books, and the slot
        admits the next request."""
        database = _db()
        layer = BlockingGridBackend(database)
        config = AcquireConfig(explore_mode="materialized")
        instance = AcquireService(
            ServiceConfig(
                workers=1, max_queue=0,
                admission="wait", wait_timeout_s=0.05,
            )
        )
        instance.register_backend("default", layer)
        try:
            first = instance.submit(_query(), config)
            assert layer.entered.wait(timeout=30.0)
            with pytest.raises(ServiceError) as excinfo:
                instance.submit(_query(), config)
            assert excinfo.value.reason == "timeout"
            assert instance.stats().timeouts == 1
            assert not first.done()
            layer.release.set()
            results = [first.result(timeout=30.0)]
            assert not instance.grid_cache._flights
            assert instance.stats().in_flight == 0
            results.append(instance.run(_query(target=130), config))
            stats = instance.stats()
        finally:
            layer.release.set()
            instance.close()
        clean = Acquire(MemoryBackend(database)).run(_query(), config)
        assert answer_key(results[0]) == answer_key(clean)
        assert (stats.admitted, stats.completed, stats.timeouts) == (2, 2, 1)
        assert stats.in_flight == 0 and stats.failed == 0
        for field in fields(ExecutionStats):
            if isinstance(getattr(layer.stats, field.name), int):
                assert sum(
                    getattr(result.stats.execution, field.name)
                    for result in results
                ) == getattr(layer.stats, field.name), field.name


class TestExecutionAccounting:
    def test_run_returns_result_and_counts(self, service):
        result = service.run(_query())
        assert result.satisfied
        stats = service.stats()
        assert stats.submitted == stats.admitted == stats.completed == 1
        assert stats.failed == 0
        assert stats.in_flight == 0
        assert stats.peak_in_flight == 1

    def test_request_failure_counts_and_surfaces(self, service):
        class _FailingDriver:
            def run(self, query, config):
                raise RuntimeError("engine exploded")

        with service._lock:
            layer = service._backends["default"][0]
            service._backends["default"] = (layer, _FailingDriver())
        with pytest.raises(RuntimeError):
            service.run(_query())
        stats = service.stats()
        assert stats.failed == 1
        assert stats.completed == 0
        assert stats.in_flight == 0
        # The slot was released: the next request is admitted normally.
        with service._lock:
            service._backends["default"] = (layer, service_module.Acquire(layer))
        assert service.run(_query()).satisfied

    def test_backend_raising_mid_pass_frees_its_slot(self):
        """A backend failure inside a whole-grid read, or inside a shell
        search that goes on cell by cell past a small cap, surfaces on
        the future, leaves no cache flight behind, and returns the slot:
        with one slot in total the next request is still admitted and
        answers exactly like a clean run."""
        database = _db()
        query = _query()
        for overrides in (
            {"explore_mode": "materialized"},
            {"explore_mode": "auto", "materialize_cell_cap": 9},
        ):
            config = AcquireConfig(gamma=20.0, **overrides)
            probe = FailingBackend(database)
            clean = Acquire(probe).run(query, config)
            layer = FailingBackend(database, fail_at=(probe.passes + 1) // 2)
            with AcquireService(
                ServiceConfig(workers=1, max_queue=0)
            ) as instance:
                instance.register_backend("default", layer)
                with pytest.raises(EngineError):
                    instance.run(query, config)
                stats = instance.stats()
                assert stats.in_flight == 0
                assert stats.failed == 1
                assert not instance.grid_cache._flights
                retry = instance.run(query, config)
                stats = instance.stats()
            assert answer_key(retry) == answer_key(clean)
            assert stats.admitted == 2 and stats.completed == 1

    def test_shared_cache_dedupes_across_requests(self, service):
        import random

        config = AcquireConfig(explore_mode="materialized")
        query = _query()
        first = service.run(query, config)
        jittered = _jitter_target(query, random.Random(3))
        second = service.run(jittered, config)
        assert first.satisfied and second.satisfied
        assert second.stats.execution.cache_hits > 0
        assert service.grid_cache.hits > 0


class TestLoadgenPrimitives:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([10.0, 20.0, 30.0, 40.0], 0.5) == 20.0
        assert percentile([10.0, 20.0, 30.0, 40.0], 0.99) == 40.0
        assert percentile([10.0], 0.0) == 10.0
        with pytest.raises(CorpusError):
            percentile([1.0], 1.5)

    def test_jitter_keeps_integer_targets_positive(self):
        import random

        query = _query(target=1)
        for seed in range(20):
            jittered = _jitter_target(query, random.Random(seed))
            assert jittered.constraint.target >= 1
            assert isinstance(jittered.constraint.target, int)

    def test_closed_loop_reports_ordered_records(self, service):
        requests = [("default", _query(), AcquireConfig())] * 4
        report = run_closed_loop(service, requests, concurrency=2)
        assert [record.index for record in report.records] == [0, 1, 2, 3]
        assert report.completed == 4
        assert report.rejected == 0
        assert report.throughput_rps > 0
        assert report.service.completed == 4
        assert len(report.latencies_ms) == 4

    def test_open_loop_records_rejections(self, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(service_module, "_execute_request", gate)
        monkeypatch.setattr(
            AcquireService,
            "_run_admitted_stub",
            _stub_run_admitted,
            raising=False,
        )
        instance = AcquireService(ServiceConfig(workers=1, max_queue=0))
        instance.register_backend("default", MemoryBackend(_db()))
        try:
            requests = [("default", _query(), AcquireConfig())] * 3
            # The gated request holds the only slot; later arrivals are
            # rejected. Release it once arrivals are done so the
            # open-loop harness can join its futures.
            releaser = threading.Timer(0.2, gate.release.set)
            releaser.start()
            report = run_open_loop(instance, requests, inter_arrival_s=0.0)
            releaser.join()
            assert report.rejected >= 1
            rejected = [r for r in report.records if r.rejected_reason]
            assert all(r.rejected_reason == "queue-full" for r in rejected)
        finally:
            gate.release.set()
            instance.close()

    def test_open_loop_times_requests_from_their_due_time(self):
        """A stalled submit delays every later arrival; their latencies
        and lags must show it (an open loop that timed from the actual
        submit, or submitted from a thread per request, would hide it)."""
        stall_s, gap_s = 0.3, 0.01
        stub = _StallingService(stall_s)
        requests = [("default", _query(), AcquireConfig())] * 5
        report = run_open_loop(stub, requests, inter_arrival_s=gap_s)
        assert report.completed == 5
        for record in report.records[1:]:
            delayed = stall_s - record.index * gap_s
            assert record.latency_s >= delayed - 0.02, record
            assert record.lag_s >= delayed - 0.02, record
            assert record.latency_s >= record.lag_s
        # The stall delays the requests after it, not the stalled one.
        assert report.records[0].lag_s < stall_s / 2
        # Every submit came from the one arrival thread: the caller's.
        assert stub.threads == {threading.get_ident()}

    def test_record_defaults(self):
        record = RequestRecord(index=0, backend="default")
        assert not record.completed
        assert record.rejected_reason == ""
