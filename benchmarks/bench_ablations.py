"""Ablations of DESIGN.md's design choices (beyond the paper's plots).

* Incremental aggregate computation vs re-executing every grid query
  as a full box query — the value of the Explore phase itself.
* The section 7.4 bitmap index on clustered data (skip-empty-cells).
* Evaluation-layer choice: memory vs SQLite on identical workloads.
"""

import time

import numpy as np
import pytest

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.expand import LpBestFirstTraversal
from repro.core.explore import Explorer
from repro.core.refined_space import RefinedSpace
from repro.datagen.distributions import clustered
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from tests.conftest import count_query


@pytest.fixture(scope="module")
def ablation_db() -> Database:
    rng = np.random.default_rng(99)
    database = Database()
    database.create_table(
        "data",
        {
            "x": rng.uniform(0, 100, 30_000),
            "y": rng.uniform(0, 100, 30_000),
        },
    )
    return database


def test_incremental_vs_full_reexecution(benchmark, ablation_db):
    """Explore phase ablation: cells + recurrence vs full box queries.

    The paper's claim that ACQUIRE evaluates "a large number of refined
    queries at a cost that is a fraction of the execution time for a
    single query" rests on this: per grid query, the incremental path
    touches only the (tiny) cell while the naive path re-filters
    everything.
    """
    query = count_query("data", {"x": 25.0, "y": 25.0}, target=2500)
    layer = MemoryBackend(ablation_db)
    prepared = layer.prepare(query, [400.0, 400.0])
    space = RefinedSpace(query, 10.0, [75.0, 75.0])
    coords_list = list(LpBestFirstTraversal(space))

    def incremental():
        explorer = Explorer(
            layer, prepared, space, query.constraint.spec.aggregate
        )
        return [explorer.compute_aggregate(c) for c in coords_list]

    def full_reexecution():
        return [
            query.constraint.spec.aggregate.finalize(
                layer.execute_box(prepared, space.scores(c))
            )
            for c in coords_list
        ]

    incremental_values = benchmark.pedantic(
        incremental, rounds=1, iterations=1, warmup_rounds=0
    )
    started = time.perf_counter()
    naive_values = full_reexecution()
    naive_elapsed = time.perf_counter() - started

    # Identical answers on every one of the grid queries.
    assert incremental_values == pytest.approx(naive_values)
    print(
        f"\n[ablation] grid queries: {len(coords_list)}, "
        f"naive re-execution: {naive_elapsed * 1000:.1f} ms"
    )


def test_bitmap_index_skips_empty_cells(benchmark):
    """Section 7.4 on clustered data: most cells are empty and the
    index proves it without executing them."""
    rng = np.random.default_rng(5)
    database = Database()
    database.create_table(
        "data",
        {
            "x": clustered(rng, 20_000, [10.0, 95.0], 2.0, 0.0, 100.0),
            "y": clustered(rng, 20_000, [10.0, 95.0], 2.0, 0.0, 100.0),
        },
    )
    query = count_query("data", {"x": 15.0, "y": 15.0}, target=9000)

    # Only the per-cell engine of an incremental plan consults the
    # index; the default plan reads shells and builds none.
    def with_index():
        layer = MemoryBackend(database)
        return Acquire(layer).run(
            query,
            AcquireConfig(
                gamma=10.0, delta=0.05, use_bitmap_index=True,
                explore_mode="incremental",
            ),
        )

    result = benchmark.pedantic(
        with_index, rounds=1, iterations=1, warmup_rounds=0
    )
    plain = Acquire(MemoryBackend(database)).run(
        query,
        AcquireConfig(gamma=10.0, delta=0.05, explore_mode="incremental"),
    )
    assert result.stats.cells_skipped > 0
    assert result.stats.cells_executed < plain.stats.cells_executed
    assert result.best.qscore == pytest.approx(plain.best.qscore)
    print(
        f"\n[ablation] cells executed {result.stats.cells_executed} "
        f"(skipped {result.stats.cells_skipped}) vs plain "
        f"{plain.stats.cells_executed}"
    )


@pytest.mark.parametrize(
    "make_layer",
    [
        pytest.param(lambda db: MemoryBackend(db), id="memory"),
        pytest.param(lambda db: SQLiteBackend(db), id="sqlite"),
    ],
)
def test_backend_choice(benchmark, ablation_db, make_layer):
    """Same ACQ through each evaluation layer; answers must agree."""
    query = count_query("data", {"x": 25.0, "y": 25.0}, target=2500)
    layer = make_layer(ablation_db)

    def run():
        return Acquire(layer).run(
            query, AcquireConfig(gamma=10.0, delta=0.05)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1,
                                warmup_rounds=0)
    assert result.satisfied
    assert result.best.aggregate_value == pytest.approx(2500, rel=0.05)
