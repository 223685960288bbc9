"""Multi-constraint ACQs: conjunction semantics end to end."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.error import default_error_for
from repro.core.grid_cache import GridTensorCache
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.scoring import MaxConstraintDistance
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend

from tests.conftest import count_query


def _sum_constraint(column: str, op: ConstraintOp, target: float):
    return AggregateConstraint(
        AggregateSpec(get_aggregate("SUM"), col(column)), op, target
    )


def _with_extra(query: Query, *extras) -> Query:
    return Query.build(
        query.name,
        query.tables,
        query.predicates,
        query.constraint,
        extra_constraints=extras,
    )


def _run(db, query, **overrides):
    defaults = dict(gamma=20.0, delta=0.05, repartition_iterations=0)
    defaults.update(overrides)
    return Acquire(MemoryBackend(db)).run(query, AcquireConfig(**defaults))


class TestQueryModel:
    def test_constraints_property_primary_first(self, small_db):
        base = count_query("data", {"x": 40.0}, 200.0, ConstraintOp.GE)
        extra = _sum_constraint("data.y", ConstraintOp.GE, 5000.0)
        query = _with_extra(base, extra)
        assert query.constraints == (query.constraint, extra)

    def test_with_only_constraint_drops_extras(self, small_db):
        base = count_query("data", {"x": 40.0}, 200.0, ConstraintOp.GE)
        extra = _sum_constraint("data.y", ConstraintOp.GE, 5000.0)
        query = _with_extra(base, extra)
        only = query.with_only_constraint(extra)
        assert only.constraint is extra
        assert only.extra_constraints == ()
        assert only.predicates == query.predicates

    def test_describe_renders_conjunction(self, small_db):
        base = count_query("data", {"x": 40.0}, 200.0, ConstraintOp.GE)
        query = _with_extra(
            base, _sum_constraint("data.y", ConstraintOp.GE, 5000.0)
        )
        text = query.describe()
        assert "COUNT(*) >= 200" in text
        assert " AND SUM(data.y) >= 5000" in text


class TestDistanceCombiners:
    def test_max_distance_is_conjunction(self):
        distance = MaxConstraintDistance()
        assert distance.combine([0.0, 0.2, 0.1]) == 0.2
        assert distance.combine([]) == 0.0


class TestAcquireConjunction:
    def test_answers_satisfy_every_constraint(self, small_db):
        base = count_query(
            "data", {"x": 40.0, "y": 40.0}, 150.0, ConstraintOp.GE
        )
        extra = _sum_constraint("data.z", ConstraintOp.GE, 6000.0)
        query = _with_extra(base, extra)
        config_delta = 0.05
        result = _run(small_db, query, delta=config_delta)
        assert result.satisfied
        extra_error_fn = default_error_for(extra.op)
        for answer in result.answers:
            assert len(answer.extra_values) == 1
            assert answer.aggregate_values == (
                answer.aggregate_value,
            ) + answer.extra_values
            # Combined (max) distance within delta means each
            # constraint is individually within delta.
            assert extra_error_fn(
                extra.target, answer.extra_values[0]
            ) <= config_delta + 1e-12

    def test_extra_constraint_can_change_the_answer(self, small_db):
        base = count_query(
            "data", {"x": 40.0, "y": 40.0}, 150.0, ConstraintOp.GE
        )
        plain = _run(small_db, base)
        # An extra demand the plain winner cannot meet pushes the
        # search further out.
        demanding = _sum_constraint("data.z", ConstraintOp.GE, 12000.0)
        harder = _run(small_db, _with_extra(base, demanding))
        assert plain.satisfied and harder.satisfied
        assert harder.qscore >= plain.qscore

    def test_contraction_with_extra_constraint(self, small_db):
        base = count_query("data", {"x": 60.0}, 150.0, ConstraintOp.LE)
        extra = _sum_constraint("data.y", ConstraintOp.LE, 9000.0)
        query = _with_extra(base, extra)
        result = _run(small_db, query)
        assert result.satisfied
        for answer in result.answers:
            assert len(answer.extra_values) == 1
            assert answer.extra_values[0] <= 9000.0 * 1.05 + 1e-9

    def test_top_k_with_extras_is_monotone(self, small_db):
        base = count_query(
            "data", {"x": 40.0, "y": 40.0}, 150.0, ConstraintOp.GE
        )
        extra = _sum_constraint("data.z", ConstraintOp.GE, 6000.0)
        result = _run(small_db, _with_extra(base, extra), top_k=3)
        qscores = [answer.qscore for answer in result.top(3)]
        assert qscores == sorted(qscores)


# ----------------------------------------------------------------------
# Every constraint is read through its own Explore engine
# ----------------------------------------------------------------------
def _quarters_db(seed: int = 5, n: int = 120) -> Database:
    """Values are multiples of 0.25 (exact binary fractions), so no row
    order moves a SUM or AVG."""
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "t",
        {
            "x": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "y": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "v": np.floor(rng.uniform(0, 200, n)) / 4.0,
            "w": np.floor(rng.uniform(0, 200, n)) / 4.0,
        },
    )
    return database


def _constraint(name: str, column: str, op: ConstraintOp, target: float):
    aggregate = get_aggregate(name)
    attribute = col(f"t.{column}") if aggregate.needs_attribute else None
    return AggregateConstraint(AggregateSpec(aggregate, attribute), op, target)


def _two_constraint_query(
    primary: AggregateConstraint, extra: AggregateConstraint
) -> Query:
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col(f"t.{column}"),
            interval=Interval(0.0, 30.0),
            direction=Direction.UPPER,
            denominator=100.0,
        )
        for i, column in enumerate("xy")
    ]
    return Query.build("q", ("t",), predicates, primary, (extra,))


def _layer(backend: str, database: Database):
    if backend == "memory":
        return MemoryBackend(database)
    return SQLiteBackend(database)


def _expansion_query() -> Query:
    return _two_constraint_query(
        _constraint("COUNT", "v", ConstraintOp.EQ, 60),
        _constraint("SUM", "v", ConstraintOp.GE, 1500.0),
    )


class TestOneEnginePerConstraint:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_repeat_reads_every_constraint_from_the_cache(self, backend):
        """A whole-grid read caches each constraint's block tensor under
        its own key, so a repeat makes no grid pass."""
        query = _expansion_query()
        layer = _layer(backend, _quarters_db())
        config = AcquireConfig(
            explore_mode="materialized", grid_cache=GridTensorCache()
        )
        first = Acquire(layer).run(query, config)
        repeat = Acquire(layer).run(query, config)
        assert first.stats.execution.grid_materializations == 2
        assert repeat.stats.execution.grid_materializations == 0
        assert repeat.stats.execution.cache_hits == len(query.constraints)
        assert [a.extra_values for a in repeat.answers] == [
            a.extra_values for a in first.answers
        ]

    @pytest.mark.parametrize(
        "mode", ["incremental", "materialized", "auto"]
    )
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_expansion_makes_no_box_query_for_the_extras(
        self, backend, mode
    ):
        """The extras are read by cell queries, shells or the whole
        grid. SQLite's only box queries are the domain reads of the
        primary's refined space, as in the single-constraint search."""
        query = _expansion_query()
        database = _quarters_db()
        config = AcquireConfig(explore_mode=mode, repartition_iterations=0)
        multi = Acquire(_layer(backend, database)).run(query, config)
        single = Acquire(_layer(backend, database)).run(
            query.with_only_constraint(query.constraint), config
        )
        assert multi.stats.grid_queries_examined > 1
        expected = 0 if backend == "memory" else query.dimensionality
        assert single.stats.execution.box_queries == expected
        assert multi.stats.execution.box_queries == expected

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_contraction_reads_one_box_per_point_per_constraint(
        self, backend
    ):
        query = _two_constraint_query(
            _constraint("COUNT", "v", ConstraintOp.LE, 10),
            _constraint("MAX", "w", ConstraintOp.LE, 40.0),
        )
        result = Acquire(_layer(backend, _quarters_db(n=400))).run(
            query, AcquireConfig()
        )
        stats = result.stats
        assert stats.explore_mode == "box"
        assert stats.grid_queries_examined > 1
        assert stats.execution.box_queries == (
            stats.grid_queries_examined * len(query.constraints)
        )


def _box_value(layer, constraint, query, pscores) -> float:
    """The extra's value at ``pscores`` read with one box query on a
    single-constraint handle, prepared with the driver's caps."""
    caps = [AcquireConfig().dim_cap_default] * query.dimensionality
    prepared = layer.prepare(query.with_only_constraint(constraint), caps)
    return constraint.spec.aggregate.finalize(
        layer.execute_box(prepared, pscores)
    )


def _same_value(name: str, engine: float, box: float) -> bool:
    if math.isnan(box):
        return math.isnan(engine)
    if name in ("SUM", "AVG"):
        return engine == pytest.approx(box, rel=1e-9, abs=1e-12)
    return float(engine).hex() == float(box).hex()


def _answer_key(result) -> tuple:
    """The answers and the closest of ``result``, with every NaN
    replaced by one marker: ``==`` on two keys then holds NaN equal to
    NaN and every other value to an exact match."""

    def nan_equal(value):
        if isinstance(value, (tuple, list)):
            return type(value)(nan_equal(item) for item in value)
        if isinstance(value, float) and math.isnan(value):
            return "NaN"
        return value

    def refined(answer):
        return (
            answer.pscores,
            answer.aggregate_value,
            answer.extra_values,
            answer.error,
        )

    return nan_equal((
        [refined(answer) for answer in result.answers],
        None if result.closest is None else refined(result.closest),
    ))


#: The Explore modes a search may read its constraints in; the last is
#: ``auto`` past a 4-cell cap, which hands the ball over to the cells.
MODES = [
    {"explore_mode": "incremental"},
    {"explore_mode": "materialized"},
    {"explore_mode": "auto"},
    {"explore_mode": "auto", "materialize_cell_cap": 4},
]

OPS = [ConstraintOp.EQ, ConstraintOp.GE, ConstraintOp.LE]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    primary=st.sampled_from(["COUNT", "SUM"]),
    extra=st.sampled_from(["SUM", "MIN", "MAX", "AVG"]),
    primary_op=st.sampled_from(OPS),
    extra_op=st.sampled_from(OPS),
    fraction=st.floats(0.1, 0.9),
    quantile=st.floats(0.0, 1.0),
)
# Every mode's closest holds a NaN extra value (a MIN over no row).
@example(
    seed=825, primary="COUNT", extra="MIN", primary_op=ConstraintOp.LE,
    extra_op=ConstraintOp.EQ, fraction=0.5, quantile=0.0,
)
def test_extra_values_equal_box_reads(
    backend, seed, primary, extra, primary_op, extra_op, fraction, quantile
):
    """Property: every answer's and the closest's ``extra_values`` equal
    a box read of the extra at its PScores, and every mode answers
    alike."""
    database = _quarters_db(seed, n=60)
    values = database.table("t").column("w")
    primary_target = {
        "COUNT": 60 * fraction,
        "SUM": float(database.table("t").column("v").sum()) * fraction,
    }[primary]
    extra_target = (
        float(values.sum()) * fraction
        if extra == "SUM"
        else float(np.quantile(values, quantile))
    )
    query = _two_constraint_query(
        _constraint(primary, "v", primary_op, primary_target),
        _constraint(extra, "w", extra_op, extra_target),
    )
    extra_constraint = query.extra_constraints[0]
    layer = _layer(backend, database)
    keys = []
    for overrides in MODES:
        result = Acquire(layer).run(
            query, AcquireConfig(gamma=20.0, **overrides)
        )
        refined = list(result.answers)
        if result.closest is not None:
            refined.append(result.closest)
        for answer in refined:
            box = _box_value(layer, extra_constraint, query, answer.pscores)
            assert _same_value(extra, answer.extra_values[0], box), (
                overrides, answer.pscores, answer.extra_values, box,
            )
        keys.append(_answer_key(result))
    assert all(key == keys[0] for key in keys[1:])
