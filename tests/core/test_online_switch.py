"""The ``auto`` plan's online switch cannot change an answer.

``explore_mode='auto'`` starts a search on the per-cell engine and,
at a layer boundary picked by timing, hands the remaining layers to
one grid pass (or to grid tiles over the tensor cap). Where it
switches depends on the host, so these tests force the switch with
``switch_at`` at every layer boundary a search reaches, in turn. Each
run must read exactly like the incremental one: answers, closest,
grid queries examined and repartition probes.

Aggregate values are multiples of 0.25 (exact binary fractions), as in
``tests/engine/test_differential.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import acquire
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import (
    AggregateSpec,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from tests.conftest import switch_at

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


def _query(aggregate, target, extras=()) -> Query:
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


def _boundaries(monkeypatch, layer, query, config) -> int:
    """Layer boundaries an ``auto`` search reaches when it never
    switches."""
    calls = []

    def never(explorer, pass_s):
        calls.append(explorer.cells_executed)
        return False

    with monkeypatch.context() as patch:
        patch.setattr(acquire, "switch_due", never)
        Acquire(layer).run(query, config)
    return len(calls)


def _check_every_boundary(monkeypatch, layer, query, config) -> None:
    reference = Acquire(layer).run(
        query, replace(config, explore_mode="incremental")
    )
    boundaries = _boundaries(monkeypatch, layer, query, config)
    assert boundaries >= 3
    for boundary in range(boundaries):
        with monkeypatch.context() as patch:
            switch_at(patch, boundary)
            run = Acquire(layer).run(query, config)
        assert _key(run) == _key(reference), boundary
        stats = run.stats
        assert stats.plan_reason == "switched"
        assert stats.switched_after is not None
        execution = stats.execution
        if stats.explore_mode == "materialized":
            # Exactly one grid pass after the per-cell prefix.
            assert execution.grid_materializations == 1
            assert execution.grid_tiles == 0
            assert execution.cell_queries == stats.switched_after
        else:
            assert stats.explore_mode == "tiled"
            assert execution.grid_tiles == execution.grid_materializations


class TestForcedSwitch:
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

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_over_cap_switches_to_tiles(self, monkeypatch, backend):
        layer = _layer(backend, _database())
        config = AcquireConfig(
            explore_mode="auto", materialize_cell_cap=16, top_k=3
        )
        _check_every_boundary(
            monkeypatch, layer, _query("COUNT", 60), config
        )

    def test_unswitched_search_matches_too(self, monkeypatch):
        """Past the last boundary the switch never fires: the search
        is incremental from start to end."""
        layer = MemoryBackend(_database())
        query = _query("COUNT", 60)
        config = AcquireConfig(explore_mode="auto")
        boundaries = _boundaries(monkeypatch, layer, query, config)
        with monkeypatch.context() as patch:
            switch_at(patch, boundaries)
            run = Acquire(layer).run(query, config)
        reference = Acquire(layer).run(
            query, AcquireConfig(explore_mode="incremental")
        )
        assert _key(run) == _key(reference)
        assert run.stats.switched_after is None
        assert run.stats.plan_reason == "online"
        assert run.stats.execution.grid_materializations == 0
