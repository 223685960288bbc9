"""End-to-end determinism of batched and concurrent execution.

A grid pass answers a whole batch of cells in one round trip; the
explore modes (``docs/EXPLORE_MODES.md``) only decide *how many round
trips* the evaluation layer makes, never *what* ACQUIRE answers. Nor do
concurrent requests sharing one layer (``docs/SERVICE.md``). Same data
and configuration must yield identical answer sets, QScores, aggregate
values and examined grid queries however the cells were batched and
however many threads asked.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.acquire import Acquire, AcquireConfig
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from tests.conftest import count_query


def _db(seed: int = 9, n: int = 3000) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "data",
        {"x": rng.uniform(0, 100, n), "y": rng.uniform(0, 100, n)},
    )
    return database


def _answer_key(result):
    return [
        (a.pscores, a.qscore, a.aggregate_value, a.error)
        for a in result.answers
    ]


def _run(database, query, backend_factory, **config_kwargs):
    layer = backend_factory(database)
    result = Acquire(layer).run(query, AcquireConfig(**config_kwargs))
    return result, layer.stats


def _run_shared(layer, query, workers, requests=8, **config_kwargs):
    """``requests`` runs of ``query`` on one shared ``layer`` from a
    pool of ``workers`` threads."""
    config = AcquireConfig(**config_kwargs)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(
                lambda _: Acquire(layer).run(query, config), range(requests)
            )
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "backend_factory", [MemoryBackend, SQLiteBackend]
    )
    def test_batched_identical_across_backends(self, backend_factory):
        """One grid pass per layer answers what one cell query per cell
        answers, in fewer round trips."""
        database = _db(seed=7, n=2000)
        query = count_query("data", {"x": 25.0, "y": 25.0}, target=700)
        serial, serial_exec = _run(
            database, query, backend_factory, explore_mode="incremental"
        )
        passes, passes_exec = _run(
            database, query, backend_factory, explore_mode="materialized"
        )
        assert _answer_key(passes) == _answer_key(serial)
        assert (
            passes.stats.grid_queries_examined
            == serial.stats.grid_queries_examined
        )
        assert passes_exec.grid_materializations >= 1
        assert passes_exec.queries_executed < serial_exec.queries_executed

    def test_thread_pool_fallback_identical(self):
        """A backend without a native grid pass assembles each pass from
        its cell queries; requests from a thread pool sharing it must
        still match serial exactly."""
        from tests.engine.test_differential import _CellOnlyLayer

        database = _db(seed=13, n=1500)
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=450)
        serial, _ = _run(database, query, MemoryBackend)
        wrapped = _CellOnlyLayer(MemoryBackend(database))
        results = _run_shared(
            wrapped, query, workers=4, explore_mode="materialized"
        )
        for other in results:
            assert _answer_key(other) == _answer_key(serial)
            assert (
                other.stats.grid_queries_examined
                == serial.stats.grid_queries_examined
            )
        assert wrapped.stats.grid_materializations >= len(results)
        assert wrapped.stats.cell_queries > 0

    def test_budget_truncation_identical(self):
        """When max_grid_queries cuts a layer short, every explore mode
        must examine only what per-cell search would have examined."""
        database = _db(seed=21, n=1200)
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=1100)
        serial, _ = _run(
            database,
            query,
            MemoryBackend,
            max_grid_queries=37,
            explore_mode="incremental",
        )
        for mode in ("materialized", "auto"):
            other, _ = _run(
                database,
                query,
                MemoryBackend,
                max_grid_queries=37,
                explore_mode=mode,
            )
            assert _answer_key(other) == _answer_key(serial), mode
            assert (
                other.stats.grid_queries_examined
                == serial.stats.grid_queries_examined
                == 37
            ), mode


class TestRoundTripReduction:
    def test_sqlite_one_group_by_per_layer(self):
        """On SQLite a grid pass is one fetch of its box's rows: explored
        layers collapse into at most one fetch each. (The test keeps
        its name from when the pass was a ``GROUP BY`` statement.)"""
        database = _db(seed=5, n=2500)
        query = count_query("data", {"x": 25.0, "y": 25.0}, target=800)
        serial, serial_exec = _run(
            database, query, SQLiteBackend, explore_mode="incremental"
        )
        layer = SQLiteBackend(database)
        statements = []
        layer._connection.set_trace_callback(statements.append)
        passes = Acquire(layer).run(
            query, AcquireConfig(explore_mode="materialized")
        )
        passes_exec = layer.stats
        assert _answer_key(passes) == _answer_key(serial)
        fetches = [
            s for s in statements if s.startswith("SELECT data.x, data.y FROM")
        ]
        assert len(fetches) == passes_exec.grid_materializations >= 1
        assert len(fetches) <= passes.stats.layers_explored
        assert passes_exec.cell_queries == 0
        assert passes_exec.queries_executed * 2 <= (
            serial_exec.queries_executed
        )
