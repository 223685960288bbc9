"""Tests for the histogram estimation evaluation layer."""

import numpy as np
import pytest

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.refined_space import RefinedSpace
from repro.engine.catalog import Database
from repro.engine.histogram_backend import HistogramBackend, _ScoreHistogram
from repro.engine.memory_backend import MemoryBackend
from repro.exceptions import EngineError, OSPViolationError
from tests.conftest import count_query


@pytest.fixture(scope="module")
def independent_db() -> Database:
    rng = np.random.default_rng(3)
    database = Database()
    database.create_table(
        "data",
        {
            "x": rng.uniform(0, 100, 30_000),
            "y": rng.uniform(0, 100, 30_000),
        },
    )
    return database


@pytest.fixture(scope="module")
def correlated_db() -> Database:
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 100, 30_000)
    database = Database()
    database.create_table(
        "data",
        {"x": x, "y": np.clip(x + rng.normal(0, 2, 30_000), 0, 100)},
    )
    return database


class TestScoreHistogram:
    def test_fractions(self):
        histogram = _ScoreHistogram(
            edges=np.array([0.0, 1.0, 2.0]),
            counts=np.array([10, 30]),
            total=40,
        )
        assert histogram.fraction_at_most(-1.0) == 0.0
        assert histogram.fraction_at_most(1.0) == pytest.approx(0.25)
        assert histogram.fraction_at_most(2.0) == 1.0
        assert histogram.fraction_at_most(1.5) == pytest.approx(
            (10 + 15) / 40
        )
        assert histogram.fraction_in(1.0, 2.0) == pytest.approx(0.75)

    def test_empty(self):
        histogram = _ScoreHistogram(
            edges=np.array([0.0, 1.0]), counts=np.array([0]), total=0
        )
        assert histogram.fraction_at_most(0.5) == 0.0


class TestEstimationAccuracy:
    def test_box_estimates_on_independent_data(self, independent_db):
        """Independence holds: estimates within a few percent of exact."""
        query = count_query(
            "data", {"x": 30.0, "y": 30.0}, target=1000
        )
        exact = MemoryBackend(independent_db)
        estimated = HistogramBackend(independent_db, bins=256)
        prepared_e = exact.prepare(query, [100.0, 100.0])
        prepared_h = estimated.prepare(query, [100.0, 100.0])
        for scores in [(0.0, 0.0), (10.0, 5.0), (40.0, 40.0)]:
            true = exact.execute_box(prepared_e, scores)[0]
            approx = estimated.execute_box(prepared_h, scores)[0]
            assert approx == pytest.approx(true, rel=0.08)

    def test_correlated_data_biased(self, correlated_db):
        """The independence assumption under-estimates on correlated
        columns — the documented failure mode."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1000)
        exact = MemoryBackend(correlated_db)
        estimated = HistogramBackend(correlated_db)
        true = exact.execute_box(
            exact.prepare(query, [100.0, 100.0]), (0.0, 0.0)
        )[0]
        approx = estimated.execute_box(
            estimated.prepare(query, [100.0, 100.0]), (0.0, 0.0)
        )[0]
        assert approx < 0.6 * true

    def test_cells_sum_to_box(self, independent_db):
        """Cell estimates over a prefix region sum to the box estimate
        (the estimator is additive, so the Explore recurrence stays
        exact w.r.t. the estimates themselves)."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1000)
        layer = HistogramBackend(independent_db)
        prepared = layer.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        box = layer.execute_box(prepared, (20.0, 20.0))[0]
        total = 0.0
        for cx in range(3):
            for cy in range(3):
                total += layer.execute_cell(prepared, space, (cx, cy))[0]
        assert total == pytest.approx(box, rel=1e-6)


class TestAcquireOverEstimates:
    def test_search_on_estimates_validates_on_exact(self, independent_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=5000)
        layer = HistogramBackend(independent_db, bins=256)
        result = Acquire(layer).run(query, AcquireConfig(gamma=10,
                                                         delta=0.05))
        assert result.satisfied
        # Validate the recommended refinement against exact execution.
        exact = MemoryBackend(independent_db)
        prepared = exact.prepare(query, [400.0, 400.0])
        true = exact.execute_box(prepared, result.best.pscores)[0]
        assert true == pytest.approx(5000, rel=0.15)

    def test_estimation_is_cheap(self, independent_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=5000)
        layer = HistogramBackend(independent_db)
        result = Acquire(layer).run(
            query,
            AcquireConfig(gamma=10, delta=0.05, explore_mode="incremental"),
        )
        # Exactly one scan (at prepare); every query afterwards touched
        # no rows, however many the search issued.
        table_size = 30_000
        assert result.stats.execution.rows_scanned == table_size
        assert result.stats.execution.queries_executed >= 10

    def test_shell_estimation_is_cheap(self, independent_db):
        """Shell reads of the estimate grid touch no rows either."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=5000)
        layer = HistogramBackend(independent_db)
        result = Acquire(layer).run(query, AcquireConfig(gamma=10,
                                                         delta=0.05))
        execution = result.stats.execution
        assert result.stats.explore_mode == "shells"
        assert execution.rows_scanned == 30_000
        assert execution.grid_materializations >= 1
        assert execution.cell_queries == 0


class TestLimitations:
    def test_max_rejected(self, independent_db):
        from repro.core.aggregates import AggregateSpec, get_aggregate
        from repro.core.query import AggregateConstraint, ConstraintOp
        from repro.engine.expression import col

        query = count_query("data", {"x": 30.0}, target=1).with_constraint(
            AggregateConstraint(
                AggregateSpec(get_aggregate("MAX"), col("data.x")),
                ConstraintOp.GE,
                50.0,
            )
        )
        with pytest.raises(OSPViolationError, match="estimated"):
            HistogramBackend(independent_db).prepare(query, [10.0])

    def test_topk_and_fetch_rejected(self, independent_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=10)
        layer = HistogramBackend(independent_db)
        prepared = layer.prepare(query, [10.0, 10.0])
        with pytest.raises(EngineError):
            layer.topk_admission(prepared, 5)
        with pytest.raises(EngineError):
            layer.fetch_rows(prepared, (0.0, 0.0))

    def test_bins_validation(self, independent_db):
        with pytest.raises(EngineError):
            HistogramBackend(independent_db, bins=1)
