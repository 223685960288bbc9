"""Shared fixtures: small deterministic databases and query builders."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
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


@pytest.fixture()
def xy_count_query() -> Query:
    """data.x <= 40 AND data.y <= 40, COUNT = 120."""
    return count_query("data", {"x": 40.0, "y": 40.0}, target=120)


class FailingBackend(MemoryBackend):
    """MemoryBackend whose ``fail_at``-th backend pass raises
    :class:`~repro.exceptions.EngineError`, once; every other pass runs
    normally. Cell, grid and tile passes count alike, so ``passes``
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
