"""Tests for the contraction extension (paper section 7.2)."""

import time

import numpy as np
import pytest

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.contraction import ContractionSpace
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from tests.conftest import count_query


@pytest.fixture(scope="module")
def wide_db() -> Database:
    rng = np.random.default_rng(9)
    database = Database()
    database.create_table(
        "data",
        {
            "x": rng.uniform(0, 100, 3000),
            "y": rng.uniform(0, 100, 3000),
        },
    )
    return database


class TestContractionSpace:
    def test_max_coords_from_shrink_caps(self, wide_db):
        query = count_query("data", {"x": 80.0, "y": 80.0}, target=10)
        space = ContractionSpace(
            query, gamma=10.0, norm=None or __import__(
                "repro.core.scoring", fromlist=["LpNorm"]
            ).LpNorm(1),
        )
        # Width 80 over denominator 100 -> shrink cap 80; step 5.
        assert space.step == 5.0
        assert space.max_coords == (16, 16)
        assert space.scores((2, 0)) == (-10.0, 0.0)
        assert space.qscore((2, 0)) == 10.0


class TestContractQuery:
    def test_le_constraint_shrinks(self, wide_db):
        """Too many results: shrink until COUNT <= target."""
        query = count_query(
            "data", {"x": 80.0, "y": 80.0}, target=500,
            op=ConstraintOp.LE,
        )
        result = Acquire(MemoryBackend(wide_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.satisfied
        best = result.best
        assert best.aggregate_value <= 500 * 1.05
        # Contraction is encoded as negative PScores.
        assert any(score < 0 for score in best.pscores)
        # Refined intervals shrank, never grew.
        for interval, predicate in zip(
            best.intervals, query.refinable_predicates
        ):
            assert interval.hi <= predicate.interval.hi + 1e-9
            assert interval.lo >= predicate.interval.lo - 1e-9

    def test_eq_overshoot_delegates_to_contraction(self, wide_db):
        """An equality ACQ whose original query already overshoots is
        handed to the contraction extension by the driver."""
        query = count_query("data", {"x": 80.0, "y": 80.0}, target=400)
        result = Acquire(MemoryBackend(wide_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.original_value > 400
        assert result.satisfied
        assert result.best.aggregate_value == pytest.approx(400, rel=0.06)

    def test_eq_overshoot_times_the_expansion_too(self):
        """The delegated search's ``elapsed_s`` covers the expansion
        that found the overshoot, as its ``execution`` counts the
        expansion's work: two slow prepares, one per direction."""

        class SlowPrepare(MemoryBackend):
            def prepare(self, query, dim_caps=None):
                time.sleep(0.02)
                return super().prepare(query, dim_caps)

        rng = np.random.default_rng(3)
        database = Database()
        database.create_table(
            "data",
            {"x": rng.uniform(0, 100, 1000), "y": rng.uniform(0, 100, 1000)},
        )
        query = count_query("data", {"x": 80.0, "y": 80.0}, target=300)
        result = Acquire(SlowPrepare(database)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.stats.plan_reason == "contraction"
        assert result.stats.elapsed_s >= 0.04

    def test_minimal_shrinkage_preferred(self, wide_db):
        """Answers minimize refinement w.r.t. Q (paper 7.2)."""
        query = count_query(
            "data", {"x": 80.0, "y": 80.0}, target=1500,
            op=ConstraintOp.LE,
        )
        config = AcquireConfig(gamma=10, delta=0.05)
        result = Acquire(MemoryBackend(wide_db)).run(query, config)
        assert result.satisfied
        # Brute-force sweep of balanced/unbalanced shrinkage vectors.
        layer = MemoryBackend(wide_db)
        prepared = layer.prepare(query, [0.0, 0.0])
        best = float("inf")
        for sx in np.arange(0, 80, 2.5):
            for sy in np.arange(0, 80, 2.5):
                count = layer.execute_box(prepared, (-sx, -sy))[0]
                if count <= 1500 * 1.05:
                    best = min(best, sx + sy)
        assert result.best.qscore <= best + config.gamma + 1e-6

    def test_already_satisfied_le(self, wide_db):
        query = count_query(
            "data", {"x": 20.0, "y": 20.0}, target=100_000,
            op=ConstraintOp.LE,
        )
        result = Acquire(MemoryBackend(wide_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.satisfied
        assert result.best.qscore == 0.0

    def test_repartition_on_overshrink(self, wide_db):
        """Coarse shrink steps skip past the target; bisection between
        grid points recovers it."""
        query = count_query("data", {"x": 80.0, "y": 80.0}, target=1700)
        config = AcquireConfig(gamma=120.0, delta=0.005,
                               repartition_iterations=16)
        result = Acquire(MemoryBackend(wide_db)).run(query, config)
        assert result.satisfied or result.best.error < 0.02

    def test_open_interval_shrinks(self, wide_db):
        """A predicate open at its far end shrinks without bound; its
        extent is clipped like an expansion grid's instead of
        overflowing."""
        predicates = [
            SelectPredicate(
                name="px",
                expr=col("data.x"),
                interval=Interval(-np.inf, 80.0),
                direction=Direction.UPPER,
            )
        ]
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.LE, 1500.0
        )
        query = Query.build("open", ("data",), predicates, constraint)
        result = Acquire(MemoryBackend(wide_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.satisfied
        assert result.best.aggregate_value <= 1500 * 1.05

    def test_sum_contraction(self, wide_db):
        predicates = [
            SelectPredicate(
                name="px",
                expr=col("data.x"),
                interval=Interval(0, 80),
                direction=Direction.UPPER,
                denominator=100.0,
            )
        ]
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("SUM"), col("data.y")),
            ConstraintOp.LE,
            40_000.0,
        )
        query = Query.build("qs", ("data",), predicates, constraint)
        result = Acquire(MemoryBackend(wide_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.satisfied
        assert result.best.aggregate_value <= 40_000 * 1.05
