"""Concurrent ACQ execution: bit-identity and per-request attribution.

The service's whole contract is that concurrency is *invisible* in the
results: N in-flight requests against shared backends and one shared
grid cache must answer exactly what a serial replay answers, and each
request's reported counters must be its own work — nothing bled in
from neighbours, nothing leaked out.

Three suites:

* ``TestConcurrentMatchesSerial`` replays a cross-family corpus subset
  through a 4-worker service and a 1-worker service, per explore mode,
  and demands bit-identical answer sets and identical per-request
  counters; no plan depends on a clock or on process-wide state (under
  the service's shared cache ``auto`` plans the whole-grid engine).
* The same test closes the books: summed per-request
  :class:`~repro.engine.backends.ExecutionStats` must equal each
  backend's own totals, counter for counter — the request scopes
  partition the layer's work exactly.
* ``TestSharedCacheDedupe`` replays the mix twice so the second pass
  hits tensors the first pass cached — cross-request dedupe — while
  answers stay identical to a serial double-replay.
* ``TestRequestScopeIsolation`` drives one shared backend from two
  barrier-synchronized :class:`~repro.core.acquire.Acquire` drivers
  (no service) and checks each reports exactly the counters a
  fresh-layer serial run reports — the regression test for the
  cross-query stats bleed.
"""

import threading
from collections import Counter
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import numpy as np
import pytest

from repro.core.acquire import Acquire
from repro.corpus.generator import realize
from repro.corpus.manifest import DEFAULT_MANIFEST_PATH, load_manifest
from repro.engine.backends import ExecutionStats
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.service import AcquireService, ServiceConfig
from tests.conftest import count_query

MODES = ("incremental", "materialized", "auto")

#: Integer counters of ExecutionStats; the float fields (timings) are
#: excluded because summing them across scopes is order-sensitive.
INT_FIELDS = tuple(
    field.name
    for field in dataclass_fields(ExecutionStats)
    if isinstance(getattr(ExecutionStats(), field.name), int)
)


@pytest.fixture(scope="module")
def corpus_subset():
    """One realized triple per corpus family (deterministic pick)."""
    manifest = load_manifest(DEFAULT_MANIFEST_PATH)
    by_family: dict[str, list] = {}
    for triple in manifest.triples:
        by_family.setdefault(triple.spec.family, []).append(triple)
    realized = []
    for family, triples in sorted(by_family.items()):
        spec = triples[0].spec
        database, query, config = realize(spec)
        realized.append((spec.triple_id, database, query, config))
    return realized


def _answer_key(result):
    return [
        (a.pscores, a.qscore, a.aggregate_value, a.error)
        for a in result.answers
    ]


def _execution_key(result):
    execution = result.stats.execution
    return {name: getattr(execution, name) for name in INT_FIELDS}


def _replay(realized, mode, workers, repeats=1):
    """Run the realized mix through a fresh service; return everything.

    ``workers=1`` replays serially (each request completes before the
    next is submitted); ``workers>1`` submits the whole mix up front so
    up to ``workers`` requests are in flight against the shared caches.
    ``repeats`` replays the request list that many times back to back,
    which makes later passes cache-warm relative to earlier ones.
    """
    requests = []
    layers = {}
    service = AcquireService(
        ServiceConfig(workers=workers, max_queue=64)
    )
    try:
        for name, database, query, config in realized:
            layer = MemoryBackend(database)
            layers[name] = layer
            service.register_backend(name, layer)
            requests.append(
                (name, query, replace(config, explore_mode=mode))
            )
        requests = requests * repeats
        if workers == 1:
            results = [
                service.run(query, config, backend=name)
                for name, query, config in requests
            ]
        else:
            futures = [
                service.submit(query, config, backend=name)
                for name, query, config in requests
            ]
            results = [future.result(timeout=300) for future in futures]
    finally:
        service.close()
    return requests, results, layers


def _assert_attribution_closes(requests, results, layers):
    """Summed per-request counters == each backend's own totals."""
    totals: dict[str, Counter] = {}
    for (name, _query, _config), result in zip(requests, results):
        accumulator = totals.setdefault(name, Counter())
        for field in INT_FIELDS:
            accumulator[field] += getattr(result.stats.execution, field)
    for name, layer in layers.items():
        layer_stats = layer.stats
        for field in INT_FIELDS:
            assert totals[name][field] == getattr(layer_stats, field), (
                f"{name}: per-request {field} sums to "
                f"{totals[name][field]} but the backend recorded "
                f"{getattr(layer_stats, field)}"
            )


class TestConcurrentMatchesSerial:
    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_and_fully_attributed(self, corpus_subset, mode):
        _, serial_results, _ = _replay(corpus_subset, mode, workers=1)
        requests, results, layers = _replay(corpus_subset, mode, workers=4)
        for index, (serial, concurrent) in enumerate(
            zip(serial_results, results)
        ):
            assert _answer_key(concurrent) == _answer_key(serial), (
                f"request {index}: concurrent answers diverged"
            )
            assert concurrent.satisfied == serial.satisfied
            assert _execution_key(concurrent) == _execution_key(
                serial
            ), f"request {index}: concurrent counters diverged"
        _assert_attribution_closes(requests, results, layers)


class TestSharedCacheDedupe:
    def test_second_replay_hits_shared_cache(self, corpus_subset):
        _, serial_results, serial_layers = _replay(
            corpus_subset, "materialized", workers=1, repeats=2
        )
        serial_hits = sum(
            layer.stats.cache_hits for layer in serial_layers.values()
        )
        assert serial_hits > 0, (
            "the second serial replay should hit tensors the first "
            "replay put in the shared cache"
        )
        requests, results, layers = _replay(
            corpus_subset, "materialized", workers=4, repeats=2
        )
        for index, (serial, concurrent) in enumerate(
            zip(serial_results, results)
        ):
            assert _answer_key(concurrent) == _answer_key(serial), (
                f"request {index}: cache-warm concurrent answers diverged"
            )
        _assert_attribution_closes(requests, results, layers)


class TestRequestScopeIsolation:
    """The cross-query stats-bleed regression, without the service."""

    def _database(self):
        rng = np.random.default_rng(23)
        database = Database()
        database.create_table(
            "data",
            {
                "x": rng.uniform(0, 100, 500),
                "y": rng.uniform(0, 100, 500),
            },
        )
        return database

    def test_concurrent_drivers_report_serial_numbers(self):
        database = self._database()
        queries = [
            count_query("data", {"x": 30.0, "y": 30.0}, target=140),
            count_query("data", {"x": 60.0, "y": 60.0}, target=260),
        ]
        expected = []
        for query in queries:
            result = Acquire(MemoryBackend(database)).run(query)
            expected.append(
                (_answer_key(result), _execution_key(result))
            )

        shared = MemoryBackend(database)
        barrier = threading.Barrier(len(queries))
        outcomes: list = [None] * len(queries)

        def worker(index: int) -> None:
            barrier.wait()
            outcomes[index] = Acquire(shared).run(queries[index])

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(queries))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for index, result in enumerate(outcomes):
            answers, execution = expected[index]
            assert _answer_key(result) == answers
            assert _execution_key(result) == execution, (
                f"query {index} reported counters that differ from its "
                "own serial run — stats bled across requests"
            )
        shared_stats = shared.stats
        for field in INT_FIELDS:
            assert getattr(shared_stats, field) == sum(
                expected[index][1][field]
                for index in range(len(queries))
            ), f"shared backend total {field} != sum of per-request work"


class TestColdBackendPrepare:
    """Concurrent first-touch ``prepare`` on one shared backend.

    The sqlite layer loads tables with CREATE TABLE + INSERT — DDL that
    is not idempotent, so racing cold requests used to crash with
    ``table ... already exists``. Loads now serialize on the backend's
    load lock; this replays the race deterministically.
    """

    def test_racing_cold_prepares_load_once(self):
        from repro.engine.sqlite_backend import SQLiteBackend

        rng = np.random.default_rng(31)
        database = Database()
        database.create_table(
            "data",
            {
                "x": rng.uniform(0, 100, 400),
                "y": rng.uniform(0, 100, 400),
            },
        )
        query = count_query("data", {"x": 40.0, "y": 40.0}, target=120)

        serial = Acquire(SQLiteBackend(database)).run(query)

        clients = 8
        layer = SQLiteBackend(database)
        barrier = threading.Barrier(clients)
        outcomes: list = [None] * clients
        errors: list = []

        def worker(index: int) -> None:
            barrier.wait()
            try:
                outcomes[index] = Acquire(layer).run(query)
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, f"racing cold prepares crashed: {errors[:1]!r}"
        for result in outcomes:
            assert _answer_key(result) == _answer_key(serial)
        # Every request did the same search work as the serial run...
        serial_execution = serial.stats.execution
        assert layer.stats.queries_executed == (
            serial_execution.queries_executed * clients
        )
        # ...but the table load itself (400 rows) was paid exactly once
        # despite eight racers arriving at a cold backend together.
        load_rows = 400
        assert layer.stats.rows_scanned == load_rows + clients * (
            serial_execution.rows_scanned - load_rows
        )
