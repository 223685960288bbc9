"""Tests for the sampling/estimation evaluation layer."""

import numpy as np
import pytest

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.query import Query
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sampling import SamplingBackend, sample_database
from repro.exceptions import EngineError
from tests.conftest import count_query


@pytest.fixture(scope="module")
def big_db() -> Database:
    rng = np.random.default_rng(21)
    database = Database()
    database.create_table(
        "data",
        {
            "x": rng.uniform(0, 100, 20_000),
            "y": rng.uniform(0, 100, 20_000),
        },
    )
    return database


class TestSampleDatabase:
    def test_fraction_respected(self, big_db):
        sampled = sample_database(big_db, 0.1, seed=1)
        size = len(sampled.table("data"))
        assert 1500 <= size <= 2500  # ~2000 expected

    def test_invalid_fraction(self, big_db):
        with pytest.raises(EngineError):
            sample_database(big_db, 0.0)
        with pytest.raises(EngineError):
            sample_database(big_db, 1.5)

    def test_deterministic(self, big_db):
        a = sample_database(big_db, 0.2, seed=5)
        b = sample_database(big_db, 0.2, seed=5)
        np.testing.assert_array_equal(
            a.table("data").column("x"), b.table("data").column("x")
        )


class TestSamplingBackend:
    def test_count_scaled_up(self, big_db):
        query = count_query("data", {"x": 40.0, "y": 40.0}, target=1000)
        layer = SamplingBackend(big_db, fraction=0.25, seed=2)
        prepared = layer.prepare(query, [100.0, 100.0])
        estimate = layer.execute_box(prepared, (0.0, 0.0))[0]
        # True count ~ 0.16 * 20000 = 3200.
        assert estimate == pytest.approx(3200, rel=0.15)

    def test_acquire_over_sample(self, big_db):
        """ACQUIRE runs unchanged over the estimation layer (paper
        section 3's modular-evaluation claim)."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=5000)
        layer = SamplingBackend(big_db, fraction=0.2, seed=3)
        result = Acquire(layer).run(query, AcquireConfig(gamma=10, delta=0.05))
        assert result.satisfied
        # Validate the recommendation against the full data.
        from repro.engine.memory_backend import MemoryBackend

        full = MemoryBackend(big_db)
        prepared = full.prepare(query, [400.0, 400.0])
        true_count = full.execute_box(prepared, result.best.pscores)[0]
        assert true_count == pytest.approx(5000, rel=0.25)

    def test_stats_delegated(self, big_db):
        layer = SamplingBackend(big_db, fraction=0.5, seed=4)
        query = count_query("data", {"x": 40.0, "y": 40.0}, target=10)
        prepared = layer.prepare(query, [10.0, 10.0])
        layer.execute_box(prepared, (0.0, 0.0))
        assert layer.stats.queries_executed == 1
        layer.reset_stats()
        assert layer.stats.queries_executed == 0


class TestFactTableSampling:
    def test_dimension_tables_kept_whole(self, big_db):
        sampled = sample_database(big_db, 0.1, seed=1, tables=())
        assert len(sampled.table("data")) == len(big_db.table("data"))

    def test_unknown_table_rejected(self, big_db):
        with pytest.raises(EngineError, match="unknown tables"):
            sample_database(big_db, 0.1, tables=("nope",))

    def test_join_scaling_counts_only_sampled_tables(self, tiny_tpch):
        """Sampling only the fact table preserves join pairs and scales
        by a single factor (the join-synopsis practice)."""
        from repro.workloads.generator import build_ratio_workload
        from repro.workloads.templates import (
            Q2_JOINS,
            Q2_TABLES,
            q2_flex_specs,
        )

        workload = build_ratio_workload(
            tiny_tpch, Q2_TABLES, q2_flex_specs(2, 0.5), 0.9,
            joins=Q2_JOINS,
        )
        layer = SamplingBackend(
            tiny_tpch, fraction=0.5, seed=7, tables=("partsupp",)
        )
        prepared = layer.prepare(workload.query, [100.0, 100.0])
        estimate = layer.execute_box(prepared, (0.0, 0.0))[0]
        assert estimate == pytest.approx(workload.original_value, rel=0.4)


def _two_table_db() -> Database:
    rng = np.random.default_rng(23)
    database = Database()
    database.create_table(
        "data",
        {"x": rng.uniform(0, 100, 2000), "y": rng.uniform(0, 100, 2000)},
    )
    database.create_table("other", {"z": rng.uniform(0, 100, 40)})
    return database


class _TopKRecorder(MemoryBackend):
    """MemoryBackend that records the k of every top-k request."""

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self.asked: list[int] = []

    def topk_admission(self, prepared, k):
        self.asked.append(k)
        return super().topk_admission(prepared, k)


class TestSampledTopK:
    """Top-k on a sample shrinks k by the share of the query's result
    the sample keeps: the factor the aggregates are scaled by."""

    def test_unsampled_tables_only_equal_exact_layer(self):
        database = _two_table_db()
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=500)
        exact = MemoryBackend(database)
        layer = SamplingBackend(
            database, fraction=0.1, seed=1, tables=("other",)
        )
        exact_prepared = exact.prepare(query, [100.0, 100.0])
        prepared = layer.prepare(query, [100.0, 100.0])
        for k in (1, 37, 500, 5000):
            expected = exact.topk_admission(exact_prepared, k)
            assert layer.topk_admission(prepared, k) == expected, k
        assert exact.topk_admission(exact_prepared, 500).max_scores[0] > 0

    def test_two_sampled_tables_scale_k_by_fraction_squared(self):
        database = _two_table_db()
        on_data = count_query("data", {"x": 20.0}, target=100)
        on_other = count_query("other", {"z": 50.0}, target=100)
        query = Query.build(
            "cross",
            ("data", "other"),
            on_data.predicates + on_other.predicates,
            on_data.constraint,
        )
        layer = SamplingBackend(
            database, fraction=0.5, seed=2, backend_factory=_TopKRecorder
        )
        prepared = layer.prepare(query, [100.0, 100.0])
        admission = layer.topk_admission(prepared, 400)
        assert layer._inner.asked == [100]
        assert admission.admitted <= 400
        # A sampled scale-up of the inner admission, as for COUNT.
        inner = layer._inner.topk_admission(prepared, 100)
        assert admission.admitted == min(round(inner.admitted / 0.25), 400)
