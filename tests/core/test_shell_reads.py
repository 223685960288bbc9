"""The ``auto`` plan's shell reads cannot change an answer.

``explore_mode='auto'`` runs :class:`GridExplorer`: it grows a QScore
ball one backend pass per shell, the bounds growing by
``BALL_GROWTH``. Where the shell boundaries fall depends on that
constant, so these tests move it to put a boundary after every layer a
search examines, in turn, and once after every layer at the same time.
Each run must read exactly like the incremental one: answers, closest,
grid queries examined and repartition probes. The same holds past the
cell cap, where the search hands the ball over to the per-cell engine
and goes on cell by cell, whichever ball the cap stops.

Aggregate values are multiples of 0.25 (exact binary fractions), as in
``tests/engine/test_differential.py``, so SQLite's row order cannot
move a SUM or AVG.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import grid_explore
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import (
    AggregateSpec,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.core.grid_explore import BOUND_SLACK, GridExplorer
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.scoring import LInfNorm, LpNorm
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend

TOTAL = UserDefinedAggregate(
    name="TOTAL",
    identity=(0.0,),
    combine=lambda left, right: (left[0] + right[0],),
    lift=lambda values: (float(np.sum(values)),),
    monotone_expanding=True,
    # SQLite's TOTAL() is a float sum, 0.0 over no rows.
    sql_selects=lambda attribute: [f"TOTAL({attribute})"],
)

#: (aggregate, EQ target): each search walks several layers, and the
#: AVG and MIN ones repartition overshooting cells.
CASES = [
    ("COUNT", 60),
    ("SUM", 1500.0),
    ("AVG", 24.0),
    ("MIN", 0.5),
    ("MAX", 49.5),
    (TOTAL, 1500.0),
]


def _database(seed: int = 71, n: int = 150) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "t",
        {
            "x": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "y": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "v": np.floor(rng.uniform(0, 200, n)) / 4.0,
        },
    )
    return database


def _spec(aggregate) -> AggregateSpec:
    if isinstance(aggregate, str):
        aggregate = get_aggregate(aggregate)
    return AggregateSpec(
        aggregate, col("t.v") if aggregate.needs_attribute else None
    )


def _query(aggregate, target, extras=(), weights=(1.0, 1.0)) -> Query:
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col(f"t.{column}"),
            interval=Interval(0.0, 30.0),
            direction=Direction.UPPER,
            denominator=100.0,
            weight=weight,
        )
        for i, (column, weight) in enumerate(zip("xy", weights))
    ]
    constraint = AggregateConstraint(
        _spec(aggregate), ConstraintOp.EQ, target
    )
    return Query.build("q", ("t",), predicates, constraint, extras)


def _layer(backend: str, database: Database):
    if backend == "memory":
        return MemoryBackend(database)
    return SQLiteBackend(database)


def _key(result) -> tuple:
    def refined(answer):
        return (
            answer.pscores, answer.qscore, answer.aggregate_value,
            answer.error, answer.coords, answer.extra_values,
        )

    return (
        [refined(answer) for answer in result.answers],
        None if result.closest is None else refined(result.closest),
        result.stats.grid_queries_examined,
        result.stats.repartition_probes,
    )


def _bounds(monkeypatch, layer, query, config) -> list[float]:
    """The ball bounds of an ``auto`` search that reads one shell per
    layer (growth 1): the first bound, then each layer's QScore past
    it, widened by ``BOUND_SLACK``."""
    bounds: list[float] = []
    reach = GridExplorer._reach

    def record(self, points):
        reach(self, points)
        if self.bound is not None and self.bound not in bounds:
            bounds.append(self.bound)

    with monkeypatch.context() as patch:
        patch.setattr(grid_explore, "BALL_GROWTH", 1.0)
        patch.setattr(GridExplorer, "_reach", record)
        Acquire(layer).run(query, config)
    return bounds


def _check_every_boundary(monkeypatch, layer, query, config) -> None:
    reference = Acquire(layer).run(
        query, replace(config, explore_mode="incremental")
    )
    bounds = _bounds(monkeypatch, layer, query, config)
    assert len(bounds) >= 3
    # Growth 1 reads a shell per layer; growth bounds[k] / bounds[0]
    # makes the second bound end right after the layer of bounds[k].
    for growth in [1.0] + [bound / bounds[0] for bound in bounds[1:]]:
        with monkeypatch.context() as patch:
            patch.setattr(grid_explore, "BALL_GROWTH", growth)
            run = Acquire(layer).run(query, config)
        assert _key(run) == _key(reference), growth
        stats = run.stats
        execution = stats.execution
        assert stats.plan_reason == "auto"
        if stats.explore_mode == "shells":
            assert execution.cell_queries == 0
            assert stats.cells_executed == execution.grid_cells
            assert stats.cells_executed >= stats.grid_queries_examined
            if growth == 1.0:
                assert execution.grid_materializations == len(bounds)
            elif stats.last_qscore > bounds[0]:
                assert execution.grid_materializations >= 2
        else:
            # Cell queries only after a handover, one per cell read
            # past the ball.
            assert stats.explore_mode == "incremental"
            assert execution.cell_queries >= 1
            assert stats.cells_executed == (
                execution.grid_cells + execution.cell_queries
            )


class TestShellBoundaries:
    @pytest.mark.parametrize("top_k", [1, 3])
    @pytest.mark.parametrize(
        "aggregate, target", CASES,
        ids=[getattr(a, "name", a) for a, _ in CASES],
    )
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_every_boundary_answers_like_incremental(
        self, monkeypatch, backend, aggregate, target, top_k
    ):
        layer = _layer(backend, _database())
        config = AcquireConfig(explore_mode="auto", top_k=top_k)
        _check_every_boundary(
            monkeypatch, layer, _query(aggregate, target), config
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_multi_constraint(self, monkeypatch, backend):
        extra = AggregateConstraint(
            _spec("SUM"), ConstraintOp.GE, 1500.0
        )
        layer = _layer(backend, _database())
        _check_every_boundary(
            monkeypatch,
            layer,
            _query("COUNT", 60, extras=(extra,)),
            AcquireConfig(explore_mode="auto"),
        )

    @pytest.mark.parametrize(
        "norm, weights",
        [(LpNorm(2), (1.0, 1.0)), (LInfNorm(), (1.0, 2.5))],
        ids=["L2", "weighted-Linf"],
    )
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_other_norms(self, monkeypatch, backend, norm, weights):
        layer = _layer(backend, _database())
        _check_every_boundary(
            monkeypatch,
            layer,
            _query("COUNT", 60, weights=weights),
            AcquireConfig(explore_mode="auto", norm=norm, top_k=3),
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_weighted_l1(self, monkeypatch, backend):
        layer = _layer(backend, _database())
        _check_every_boundary(
            monkeypatch,
            layer,
            _query("SUM", 1500.0, weights=(1.0, 3.0)),
            AcquireConfig(explore_mode="auto", top_k=3),
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_query_budget_cut(self, monkeypatch, backend):
        layer = _layer(backend, _database())
        _check_every_boundary(
            monkeypatch,
            layer,
            _query("COUNT", 60),
            AcquireConfig(explore_mode="auto", max_grid_queries=9),
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_over_cap_hands_over_to_cells(self, monkeypatch, backend):
        """A 16-cell cap: the ball's box outgrows it mid-search, and the
        remaining reads go cell by cell from the ball's sub-aggregates."""
        layer = _layer(backend, _database())
        query = _query("COUNT", 60)
        config = AcquireConfig(
            explore_mode="auto", materialize_cell_cap=16, top_k=3
        )
        _check_every_boundary(monkeypatch, layer, query, config)
        run = Acquire(layer).run(query, config)
        execution = run.stats.execution
        assert run.stats.explore_mode == "incremental"
        assert execution.grid_materializations >= 1
        assert execution.cell_queries >= 1
        assert execution.grid_cells <= 16 * execution.grid_materializations

    def test_counts_repeat_across_runs(self):
        """No clock steers the plan: two runs make the same passes."""
        layer = SQLiteBackend(_database())
        query = _query("AVG", 24.0)
        runs = [
            Acquire(layer).run(query, AcquireConfig()).stats.execution
            for _ in range(2)
        ]
        first, second = (
            (e.queries_executed, e.grid_materializations, e.grid_cells,
             e.box_queries, e.cell_queries)
            for e in runs
        )
        assert first == second


# ----------------------------------------------------------------------
# Past the cell cap: the handover reads like incremental, at every cap
# ----------------------------------------------------------------------
def _bits(result) -> tuple:
    """Answers, closest, original value and grid queries examined, with
    every float as its bits (so NaNs compare)."""

    def refined(answer):
        return (
            answer.coords,
            [score.hex() for score in answer.pscores],
            answer.qscore.hex(),
            float(answer.aggregate_value).hex(),
            float(answer.error).hex(),
        )

    return (
        [refined(answer) for answer in result.answers],
        None if result.closest is None else refined(result.closest),
        float(result.original_value).hex(),
        result.stats.grid_queries_examined,
    )


def _largest_box(layer, query, config) -> tuple[int, int]:
    """The grid's size and the most cells a ball's bounding box holds
    in an uncapped ``auto`` search."""
    seen = {"grid": 0, "box": 0}
    reach = GridExplorer._reach

    def record(self, points):
        reach(self, points)
        seen["grid"] = self.space.grid_size
        if self._hi:
            box = math.prod(high + 1 for high in self._hi)
            seen["box"] = max(seen["box"], box)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GridExplorer, "_reach", record)
        Acquire(layer).run(query, config)
    return seen["grid"], seen["box"]


def _check_every_cap(layer, query, config) -> None:
    """For every cap from 1 up to the grid size, ``auto`` reads like
    ``incremental`` bit for bit, and goes cell by cell exactly when a
    ball's box exceeded the cap. Cap 1 is over the first ball's box, so
    that search hands over with nothing to seed."""
    reference = Acquire(layer).run(
        query, replace(config, explore_mode="incremental")
    )
    grid, largest = _largest_box(layer, query, config)
    contracts = reference.stats.explore_mode == "box"
    assert contracts or grid > 1
    for cap in range(1, grid + 1):
        run = Acquire(layer).run(
            query, replace(config, materialize_cell_cap=cap)
        )
        assert _bits(run) == _bits(reference), cap
        if contracts:
            assert run.stats.explore_mode == "box"
            continue
        handed_over = run.stats.explore_mode == "incremental"
        assert handed_over == (largest > cap), cap
        if not handed_over:
            assert run.stats.explore_mode == "shells"
        if cap == 1:
            assert run.stats.execution.grid_materializations == 0


def _cap_query(aggregate, columns, op, target) -> Query:
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col(f"t.{column}"),
            interval=Interval(0.0, 30.0),
            direction=Direction.UPPER,
            denominator=100.0,
        )
        for i, column in enumerate(columns)
    ]
    constraint = AggregateConstraint(_spec(aggregate), op, target)
    return Query.build("q", ("t",), predicates, constraint)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    columns=st.sampled_from(["xy", "xyv"]),
    aggregate=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    op=st.sampled_from([ConstraintOp.EQ, ConstraintOp.GE]),
    fraction=st.floats(0.1, 1.2),
)
def test_every_cap_answers_like_incremental(
    seed, columns, aggregate, op, fraction
):
    """Property: on random 2-d and 3-d memory tables, every cap hands
    over where a ball outgrows it and answers like incremental."""
    database = _database(seed, n=90)
    values = database.table("t").column("v")
    target = {
        "COUNT": 90 * fraction,
        "SUM": float(values.sum()) * fraction,
    }.get(aggregate, float(np.quantile(values, min(fraction, 1.0))))
    query = _cap_query(aggregate, columns, op, target)
    # 6 coordinates per axis: 36 and 216 caps.
    config = AcquireConfig(explore_mode="auto", step=15.0, gamma=45.0)
    _check_every_cap(MemoryBackend(database), query, config)


@pytest.mark.parametrize(
    "aggregate, target", [("COUNT", 60), ("MIN", 0.5), ("MAX", 49.5)]
)
def test_every_cap_answers_like_incremental_on_sqlite(aggregate, target):
    config = AcquireConfig(explore_mode="auto", step=10.0, gamma=20.0)
    _check_every_cap(
        SQLiteBackend(_database()), _query(aggregate, target), config
    )


# ----------------------------------------------------------------------
# Block states inside the ball equal the materialized engine's
# ----------------------------------------------------------------------
NORMS = {
    "L1": (LpNorm(1), (1.0, 1.0, 1.0)),
    "weighted-L1": (LpNorm(1), (1.0, 2.5, 0.75)),
    "L2": (LpNorm(2), (1.0, 1.0, 2.0)),
    "Linf": (LInfNorm(), (1.0, 1.5, 1.0)),
}


def _property_query(aggregate: str, weights) -> Query:
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col(f"t.{column}"),
            interval=Interval(0.0, 30.0),
            direction=Direction.UPPER,
            denominator=100.0,
            weight=weight,
        )
        for i, (column, weight) in enumerate(zip("xyv", weights))
    ]
    constraint = AggregateConstraint(
        _spec(aggregate), ConstraintOp.GE, 1.0
    )
    return Query.build("q", ("t",), predicates, constraint)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    aggregate=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    norm=st.sampled_from(sorted(NORMS)),
    growth=st.floats(1.0, 4.0),
    reads=st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_ball_blocks_equal_materialized(
    seed, aggregate, norm, growth, reads
):
    """After every read, in any order, each block state inside the
    ball equals the materialized engine's bit for bit."""
    norm, weights = NORMS[norm]
    query = _property_query(aggregate, weights)
    space = RefinedSpace(query, 15.0, [45.0, 45.0, 45.0], norm)
    aggregate_fn = query.constraint.spec.aggregate
    database = _database(seed, n=120)
    whole = MemoryBackend(database)
    materialized = GridExplorer(
        whole, whole.prepare(query), space, aggregate_fn, whole=True
    )
    materialized.block_state(space.origin)
    blocks = materialized._blocks
    layer = MemoryBackend(database)
    shells = GridExplorer(layer, layer.prepare(query), space, aggregate_fn)
    qscores = space.box_qscores(space.origin, space.max_coords)
    original = grid_explore.BALL_GROWTH
    grid_explore.BALL_GROWTH = growth
    try:
        for point in reads:
            assert np.array_equal(
                shells.block_state(point),
                materialized.block_state(point),
                equal_nan=True,
            )
            ball = qscores <= shells.bound
            box = tuple(slice(0, high + 1) for high in shells._hi)
            assert np.array_equal(
                shells._blocks[ball[box]], blocks[ball], equal_nan=True
            )
            assert shells.bound <= qscores.max() * (1 + BOUND_SLACK)
    finally:
        grid_explore.BALL_GROWTH = original
    assert shells.cells_executed == int(np.count_nonzero(ball))
    assert layer.stats.grid_cells == shells.cells_executed
