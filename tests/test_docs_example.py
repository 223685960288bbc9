"""Every number in docs/ALGORITHM.md, asserted against the code."""

import numpy as np
import pytest

from repro import (
    Acquire,
    AcquireConfig,
    Database,
    Interval,
    MemoryBackend,
    Query,
    SelectPredicate,
    col,
)
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.contraction import ContractionSpace
from repro.core.expand import LpBestFirstTraversal
from repro.core.explore import Explorer
from repro.core.predicate import Direction
from repro.core.query import AggregateConstraint, ConstraintOp
from repro.core.refined_space import RefinedSpace


@pytest.fixture()
def setup():
    db = Database()
    db.create_table(
        "sales",
        {
            "price": np.array([5.0, 8, 12, 14, 18, 22, 26, 30]),
            "weight": np.array([2.0, 9, 4, 11, 6, 13, 8, 15]),
        },
    )
    predicates = [
        SelectPredicate(
            name="price_le",
            expr=col("sales.price"),
            interval=Interval(0, 10),
            direction=Direction.UPPER,
            denominator=40.0,
        ),
        SelectPredicate(
            name="weight_le",
            expr=col("sales.weight"),
            interval=Interval(0, 5),
            direction=Direction.UPPER,
            denominator=20.0,
        ),
    ]
    constraint = AggregateConstraint(
        AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 6
    )
    query = Query.build("walkthrough", ("sales",), predicates, constraint)
    return db, query


DOCUMENTED_SCORES = [
    (-12.5, -15.0),
    (-5.0, 20.0),
    (5.0, -5.0),
    (10.0, 30.0),
    (20.0, 5.0),
    (30.0, 40.0),
    (40.0, 15.0),
    (50.0, 50.0),
]

DOCUMENTED_CELLS = {
    (0, 0): 1, (0, 1): 1, (0, 2): 0, (0, 3): 0,
    (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 0,
    (2, 0): 0, (2, 1): 1, (2, 2): 1, (2, 3): 0,
    (3, 0): 0, (3, 1): 0, (3, 2): 0, (3, 3): 1,
}

DOCUMENTED_BLOCKS = {
    (0, 0): 1,
    (0, 1): 2, (1, 0): 2,
    (0, 2): 2, (1, 1): 4, (2, 0): 2,
    (0, 3): 2, (1, 2): 5, (2, 1): 5, (3, 0): 2,
}


class TestWalkthroughNumbers:
    def test_signed_scores_table(self, setup):
        db, query = setup
        layer = MemoryBackend(db)
        prepared = layer.prepare(query, [100.0, 100.0])
        scores = prepared.candidate.scores
        assert scores.shape == (8, 2)
        for row, documented in enumerate(DOCUMENTED_SCORES):
            assert tuple(scores[row]) == pytest.approx(documented)

    def test_grid_geometry(self, setup):
        db, query = setup
        space = RefinedSpace(query, gamma=40.0, max_scores=[50.0, 50.0])
        assert space.step == 20.0
        assert space.max_coords == (3, 3)

    def test_cell_matrix(self, setup):
        db, query = setup
        layer = MemoryBackend(db)
        prepared = layer.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, gamma=40.0, max_scores=[50.0, 50.0])
        for coords, documented in DOCUMENTED_CELLS.items():
            count = layer.execute_cell(prepared, space, coords)[0]
            assert count == documented, coords

    def test_block_counts_via_recurrence(self, setup):
        db, query = setup
        layer = MemoryBackend(db)
        prepared = layer.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, gamma=40.0, max_scores=[50.0, 50.0])
        explorer = Explorer(
            layer, prepared, space, query.constraint.spec.aggregate
        )
        for coords in LpBestFirstTraversal(space):
            value = explorer.compute_aggregate(coords)
            if coords in DOCUMENTED_BLOCKS:
                assert value == DOCUMENTED_BLOCKS[coords], coords

    def test_delta_020_answers_in_layer_60(self, setup):
        db, query = setup
        result = Acquire(MemoryBackend(db)).run(
            query,
            AcquireConfig(gamma=40.0, delta=0.20,
                          repartition_iterations=0),
        )
        assert result.satisfied
        assert result.original_value == 1.0
        answer_coords = sorted(a.coords for a in result.answers)
        assert answer_coords == [(1, 2), (2, 1)]
        for answer in result.answers:
            assert answer.aggregate_value == 5
            assert answer.qscore == 60.0
            assert answer.error == pytest.approx(1 / 6)
        # Exactly the 10 grid queries of layers 0..60 were examined.
        assert result.stats.grid_queries_examined == 10

    def test_documented_refined_bounds(self, setup):
        db, query = setup
        result = Acquire(MemoryBackend(db)).run(
            query,
            AcquireConfig(gamma=40.0, delta=0.20,
                          repartition_iterations=0),
        )
        by_coords = {a.coords: a for a in result.answers}
        assert by_coords[(1, 2)].intervals[0].hi == pytest.approx(18.0)
        assert by_coords[(1, 2)].intervals[1].hi == pytest.approx(13.0)
        assert by_coords[(2, 1)].intervals[0].hi == pytest.approx(26.0)
        assert by_coords[(2, 1)].intervals[1].hi == pytest.approx(9.0)

    def test_delta_zero_needs_repartitioning(self, setup):
        db, query = setup
        result = Acquire(MemoryBackend(db)).run(
            query,
            AcquireConfig(gamma=40.0, delta=0.0,
                          repartition_iterations=16),
        )
        assert result.satisfied
        best = result.best
        assert best.coords is None  # off-grid, from repartitioning
        assert best.aggregate_value == 6
        assert best.pscores == pytest.approx((30.0, 50.0))
        assert best.qscore == pytest.approx(80.0)
        assert best.intervals[0].hi == pytest.approx(22.0)
        assert best.intervals[1].hi == pytest.approx(15.0)


@pytest.fixture()
def overfull(setup):
    """The "Contraction (§7.2)" query: every row qualifies, COUNT = 5."""
    db, _ = setup
    predicates = [
        SelectPredicate(
            name="price_le",
            expr=col("sales.price"),
            interval=Interval(0, 30),
            direction=Direction.UPPER,
            denominator=40.0,
        ),
        SelectPredicate(
            name="weight_le",
            expr=col("sales.weight"),
            interval=Interval(0, 15),
            direction=Direction.UPPER,
            denominator=20.0,
        ),
    ]
    constraint = AggregateConstraint(
        AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 5
    )
    return db, Query.build("overfull", ("sales",), predicates, constraint)


DOCUMENTED_CONTRACTION = {
    (0, 0): 8, (0, 1): 6, (1, 0): 6, (0, 2): 3, (1, 1): 5, (2, 0): 4,
}


class TestContractionNumbers:
    def test_signed_grid(self, overfull):
        _, query = overfull
        space = ContractionSpace(query, 40.0)
        assert space.step == 20.0
        assert space.max_coords == (4, 4)
        assert [i.hi for i in space.intervals_at((1, 1))] == [22.0, 11.0]

    def test_walk_and_prune(self, overfull):
        db, query = overfull
        layer = MemoryBackend(db)
        result = Acquire(layer).run(
            query, AcquireConfig(gamma=40.0, delta=0.0,
                                 repartition_iterations=0)
        )
        assert result.original_value == 8
        assert [a.coords for a in result.answers] == [(1, 1)]
        assert result.best.qscore == 40.0
        assert result.stats.grid_queries_examined == 6
        assert result.stats.execution.box_queries == 6
        assert (result.stats.explore_mode, result.stats.plan_reason) == (
            "box", "contraction"
        )
        prepared = layer.prepare(query, [0.0, 0.0])
        space = ContractionSpace(query, 40.0)
        for coords, documented in DOCUMENTED_CONTRACTION.items():
            state = layer.execute_box(prepared, space.scores(coords))
            assert state[0] == documented, coords
        ranked = Acquire(MemoryBackend(db)).run(
            query, AcquireConfig(gamma=40.0, delta=0.0, top_k=3,
                                 repartition_iterations=0)
        )
        assert ranked.stats.grid_queries_examined == 25

    def test_repartition_toward_q(self, overfull):
        db, query = overfull
        result = Acquire(MemoryBackend(db)).run(
            query, AcquireConfig(gamma=40.0, delta=0.0,
                                 repartition_iterations=8)
        )
        best = sorted(
            (a for a in result.answers if a.coords is None),
            key=lambda a: a.pscores,
        )
        assert [a.pscores for a in best] == [(-30.0, 0.0), (0.0, -30.0)]
        assert [a.qscore for a in best] == [30.0, 30.0]
        assert best[0].intervals[0].hi == 18.0
        assert best[1].intervals[1].hi == 9.0
        assert result.best.qscore == 30.0
        assert result.stats.repartition_probes == 16
        assert result.stats.repartitioned_cells == 2
        assert result.stats.execution.box_queries == 6 + 16
