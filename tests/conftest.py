"""Shared fixtures: small deterministic databases and query builders."""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.interval import Interval
from repro.core.predicate import Direction, JoinPredicate, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.datagen.synthetic import numeric_table, users_table
from repro.datagen.tpch import TPCHConfig, generate_tpch
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.exceptions import EngineError


def pytest_collection_modifyitems(config, items):
    """Order-hygiene check: ``REPRO_TEST_SHUFFLE=<seed>`` shuffles the
    collected test order deterministically. The suite must pass in any
    order — hidden inter-test coupling (shared mutable fixtures, module
    state) is a bug. CI runs one shuffled pass; reproduce a failure
    locally with the seed it prints."""
    seed = os.environ.get("REPRO_TEST_SHUFFLE")
    if not seed:
        return
    random.Random(seed).shuffle(items)
    print(f"[conftest] shuffled {len(items)} tests "
          f"(REPRO_TEST_SHUFFLE={seed})")


@pytest.fixture(scope="session")
def small_db() -> Database:
    """One table 'data' with uniform x, y, z in [0, 100], 400 rows."""
    database = Database("small")
    database.add_table(numeric_table("data", n=400, seed=11))
    return database


@pytest.fixture(scope="session")
def users_db() -> Database:
    return users_table(n=3000, seed=3)


@pytest.fixture(scope="session")
def tiny_tpch() -> Database:
    return generate_tpch(TPCHConfig(scale_rows=600, seed=5))


@pytest.fixture(scope="session")
def skewed_tpch() -> Database:
    return generate_tpch(TPCHConfig(scale_rows=600, seed=5, zipf_z=1.0))


def count_query(
    table: str,
    bounds: dict[str, float],
    target: float,
    op: ConstraintOp = ConstraintOp.EQ,
    lo: float = 0.0,
    domain_hi: float = 100.0,
    name: str = "q",
) -> Query:
    """COUNT ACQ with one UPPER predicate per (column, bound)."""
    predicates = [
        SelectPredicate(
            name=f"{column}_le",
            expr=col(f"{table}.{column}"),
            interval=Interval(lo, bound),
            direction=Direction.UPPER,
            denominator=domain_hi - lo,
        )
        for column, bound in bounds.items()
    ]
    constraint = AggregateConstraint(
        AggregateSpec(get_aggregate("COUNT")), op, target
    )
    return Query.build(name, (table,), predicates, constraint)


def q2_shaped(
    aggregate: str = "COUNT", seed: int = 0, bound: float = 30.0
) -> tuple[Database, Query]:
    """A star join shaped like Fig 8's Q2: fact table ``ps`` joins
    ``s`` on ``ps.sk = s.sk`` and ``p`` on ``ps.pk = p.pk``, two fixed
    equi-joins, with one refinable ``<= bound`` select per table and the
    aggregate over ``ps.v``. Every number is an exact binary fraction,
    so each threshold tie lands the same way on every backend."""
    rng = np.random.default_rng(seed)

    def quarters(n: int, high: float = 100.0) -> np.ndarray:
        return np.floor(rng.uniform(0.0, high * 4, n)) / 4.0

    database = Database()
    database.create_table("s", {"sk": np.arange(20.0), "bal": quarters(20)})
    database.create_table("p", {"pk": np.arange(40.0), "price": quarters(40)})
    database.create_table(
        "ps",
        {
            "sk": rng.integers(0, 20, 240).astype(float),
            "pk": rng.integers(0, 40, 240).astype(float),
            "cost": quarters(240),
            "v": quarters(240, 50.0),
        },
    )
    joins = [
        JoinPredicate(
            name=f"j_{key}",
            left=col(f"{table}.{key}"),
            right=col(f"ps.{key}"),
            refinable=False,
        )
        for table, key in (("s", "sk"), ("p", "pk"))
    ]
    selects = [
        SelectPredicate(
            name=column,
            expr=col(column),
            interval=Interval(0.0, bound),
            direction=Direction.UPPER,
            denominator=100.0,
        )
        for column in ("p.price", "s.bal", "ps.cost")
    ]
    agg = get_aggregate(aggregate)
    constraint = AggregateConstraint(
        AggregateSpec(agg, col("ps.v") if agg.needs_attribute else None),
        ConstraintOp.EQ,
        100.0,
    )
    query = Query.build("q2", ("s", "p", "ps"), joins + selects, constraint)
    return database, query


@pytest.fixture()
def xy_count_query() -> Query:
    """data.x <= 40 AND data.y <= 40, COUNT = 120."""
    return count_query("data", {"x": 40.0, "y": 40.0}, target=120)


class FailingBackend(MemoryBackend):
    """MemoryBackend whose ``fail_at``-th backend pass raises
    :class:`~repro.exceptions.EngineError`, once; every other pass runs
    normally. Cell queries and grid passes count alike, so ``passes``
    after a clean run (``fail_at=0`` never fails) tells a test where a
    failure lands mid-search."""

    def __init__(self, database: Database, fail_at: int = 0) -> None:
        super().__init__(database)
        self.fail_at = fail_at
        self.passes = 0

    def _enter_pass(self) -> None:
        self.passes += 1
        if self.passes == self.fail_at:
            raise EngineError(f"injected failure in backend pass {self.passes}")

    def execute_cell(self, prepared, space, coords):
        self._enter_pass()
        return super().execute_cell(prepared, space, coords)

    def execute_grid(self, prepared, space):
        self._enter_pass()
        return super().execute_grid(prepared, space)

    def execute_grid_tile(self, prepared, space, lo, hi, shell=None):
        self._enter_pass()
        return super().execute_grid_tile(prepared, space, lo, hi, shell)


def answer_key(result) -> tuple:
    """Everything a caller reads of an ACQUIRE answer set, exactly."""

    def refined(answer):
        return (
            answer.pscores, answer.qscore, answer.aggregate_value,
            answer.error,
        )

    return (
        [refined(answer) for answer in result.answers],
        None if result.closest is None else refined(result.closest),
    )
