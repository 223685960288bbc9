"""Tests for both evaluation layers and their cross-equivalence.

The strongest check in this module: the memory backend and the SQLite
backend must return *identical* aggregate states for every cell and box
query of a refined space — they implement the same semantics through
completely different execution paths (numpy score filters vs. generated
SQL), so agreement is strong evidence both are right.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.expand import LpBestFirstTraversal
from repro.core.interval import Interval
from repro.core.predicate import Direction, JoinPredicate, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.datagen.tpch import TPCHConfig, generate_tpch
from repro.engine.backends import ExecutionStats
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend, _index_plan
from repro.exceptions import EngineError
from repro.workloads.generator import build_ratio_workload
from repro.workloads.templates import Q2_JOINS, Q2_TABLES, q2_flex_specs
from tests.conftest import q2_shaped


def _db(seed=0, n=250):
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "t",
        {
            "x": np.round(rng.uniform(0, 100, n), 3),
            "y": np.round(rng.uniform(0, 100, n), 3),
            "v": np.round(rng.uniform(0, 50, n), 3),
        },
    )
    return database


def _query(aggregate="COUNT", bounds=(30.0, 30.0)):
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col("t." + column),
            interval=Interval(0.0, bound),
            direction=Direction.UPPER,
            denominator=100.0,
        )
        for i, (column, bound) in enumerate(zip(("x", "y"), bounds))
    ]
    agg = get_aggregate(aggregate)
    attr = col("t.v") if agg.needs_attribute else None
    constraint = AggregateConstraint(
        AggregateSpec(agg, attr), ConstraintOp.EQ, 100.0
    )
    return Query.build("q", ("t",), predicates, constraint)


class TestExecutionStats:
    def test_snapshot_and_since(self):
        stats = ExecutionStats(queries_executed=5, rows_scanned=100)
        snap = stats.snapshot()
        stats.queries_executed += 3
        stats.rows_scanned += 10
        delta = stats.since(snap)
        assert delta.queries_executed == 3
        assert delta.rows_scanned == 10
        assert snap.queries_executed == 5

    def test_since_covers_every_field(self):
        """Regression: ``since`` must delta every counter, so work
        landing between snapshots shows up in full, whatever counter
        it moves."""
        from dataclasses import fields

        stats = ExecutionStats()
        snap = stats.snapshot()
        for index, field_info in enumerate(fields(ExecutionStats), start=1):
            setattr(
                stats,
                field_info.name,
                getattr(stats, field_info.name) + index,
            )
        delta = stats.since(snap)
        for index, field_info in enumerate(fields(ExecutionStats), start=1):
            assert getattr(delta, field_info.name) == index, field_info.name

    def test_since_sees_grid_pass(self):
        """The drift scenario end-to-end: a real grid pass between
        snapshot and since."""
        database = _db(seed=30, n=100)
        query = _query()
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, 10.0, [70.0, 70.0])
        snap = layer.stats.snapshot()
        layer.execute_grid_tile(prepared, space, (1, 0), (3, 1))
        delta = layer.stats.since(snap)
        assert delta.queries_executed == 1
        assert delta.grid_materializations == 1
        assert delta.grid_cells == 6
        assert delta.rows_scanned == prepared.candidate.nrows
        assert delta.cell_queries == 0


class TestMemoryBackend:
    def test_execute_original_equals_direct_count(self):
        database = _db()
        query = _query()
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        state = layer.execute_original(prepared)
        x = database.table("t").column("x")
        y = database.table("t").column("y")
        expected = int(np.sum((x <= 30.0) & (y <= 30.0)))
        assert state[0] == expected

    def test_box_arity_checked(self):
        database = _db()
        layer = MemoryBackend(database)
        prepared = layer.prepare(_query(), [100.0, 100.0])
        with pytest.raises(EngineError):
            layer.execute_box(prepared, (1.0,))

    def test_stats_counted(self):
        database = _db()
        layer = MemoryBackend(database)
        prepared = layer.prepare(_query(), [100.0, 100.0])
        space = RefinedSpace(_query(), 10.0, [70.0, 70.0])
        layer.execute_cell(prepared, space, (0, 0))
        layer.execute_box(prepared, (5.0, 5.0))
        assert layer.stats.cell_queries == 1
        assert layer.stats.box_queries == 1
        assert layer.stats.queries_executed == 2
        assert layer.stats.rows_scanned > 0

    def test_topk_admission(self):
        database = _db(4)
        query = _query()
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        admission = layer.topk_admission(prepared, 50)
        assert admission.admitted == 50
        assert len(admission.max_scores) == 2
        assert all(score >= 0 for score in admission.max_scores)
        # The bounding query must actually admit >= k tuples.
        state = layer.execute_box(prepared, admission.max_scores)
        assert state[0] >= 50

    def test_topk_fewer_candidates_than_k(self):
        database = _db(5, n=20)
        layer = MemoryBackend(database)
        prepared = layer.prepare(_query(), [100.0, 100.0])
        admission = layer.topk_admission(prepared, 10_000)
        assert admission.admitted == 20


class TestSQLiteBackend:
    def test_useful_max_scores_from_domain(self):
        database = _db(6)
        layer = SQLiteBackend(database)
        prepared = layer.prepare(_query(), [400.0, 400.0])
        scores = layer.useful_max_scores(prepared)
        # Domain max ~100, bound 30, denominator 100 -> ~70.
        assert scores[0] == pytest.approx(70.0, abs=2.0)

    @pytest.mark.parametrize(
        "case", ["indexed", "unindexed", "expression", "all_null", "empty"]
    )
    def test_domain_query(self, case):
        """A select's domain is what one scan's ``MIN``/``MAX`` returns,
        in one counted box query. On an indexed column it reads the two
        ends of the index; an expression or an unindexed column keeps
        the one scan."""
        n = 0 if case == "empty" else 300
        rng = np.random.default_rng(8)
        x = np.round(rng.uniform(-50, 100, n), 3)
        if case == "all_null":
            x = np.full(n, np.nan)
        database = Database()
        database.create_table(
            "t", {"x": x, "y": np.round(rng.uniform(0, 9, n), 3)}
        )
        layer = SQLiteBackend(database, create_indexes=case != "unindexed")
        expr = col("t.x") + col("t.y") if case == "expression" else col("t.x")
        query = Query.build(
            "q",
            ("t",),
            [
                SelectPredicate(
                    name="p",
                    expr=expr,
                    interval=Interval(0.0, 30.0),
                    direction=Direction.UPPER,
                    denominator=100.0,
                )
            ],
            AggregateConstraint(
                AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 5
            ),
        )
        layer.prepare(query, [100.0])
        connection = layer._connection
        statements: list[str] = []
        connection.set_trace_callback(statements.append)
        before = layer.stats.snapshot()
        domain = layer._expr_domain(expr, "t")
        connection.set_trace_callback(None)
        delta = layer.stats.since(before)
        assert (delta.queries_executed, delta.box_queries) == (1, 1)
        sql = expr.to_sql()
        low, high = connection.execute(
            f"SELECT MIN({sql}), MAX({sql}) FROM t"
        ).fetchone()
        expected = (0.0, 0.0) if low is None else (float(low), float(high))
        assert (domain.lo, domain.hi) == expected
        assert len(statements) == 1
        plan = [
            row[3]
            for row in connection.execute(
                "EXPLAIN QUERY PLAN " + statements[0]
            )
        ]
        if case in ("unindexed", "expression"):
            assert [step for step in plan if "SCAN t" in step] == [plan[-1]]
        else:
            assert plan.count("SEARCH t USING COVERING INDEX idx_t(x)") == 2

    @pytest.mark.parametrize("aggregate", ["COUNT", "SUM"])
    def test_join_lookups_read_covering_indexes(self, aggregate):
        """On a star join, a shell pass, a box reader's fetch and
        ``execute_box`` look each joined table up by its join key in an
        index that holds every column the query reads of that table, so
        no lookup reads a table row."""
        database, query = q2_shaped(aggregate)
        layer = SQLiteBackend(database)
        prepared = layer.prepare(query, [100.0] * 3)
        space = RefinedSpace(query, 20.0, [70.0] * 3)
        connection = layer._connection
        statements: list[str] = []
        connection.set_trace_callback(statements.append)
        layer.execute_grid_tile(
            prepared, space, (0, 0, 0), (2, 2, 2), shell=(10.0, 40.0)
        )
        layer.box_reader(prepared, (40.0, 40.0, 40.0))((20.0, 30.0, 10.0))
        layer.execute_box(prepared, (10.0, 20.0, 30.0))
        connection.set_trace_callback(None)
        reads = [sql for sql in statements if not sql.startswith("VALUES")]
        assert len(reads) == 3
        for sql in reads:
            plan = [
                row[3] for row in connection.execute("EXPLAIN QUERY PLAN " + sql)
            ]
            lookups = [step for step in plan if re.search(r"\(\w+=\?", step)]
            assert len(lookups) == 2, plan
            assert all("USING COVERING INDEX" in step for step in lookups), plan

    def test_index_count(self):
        """``prepare`` builds one index per join column and one per
        numeric select column, seven here, as many as when each was a
        single-column index. A later query that reads no other column
        builds none, and neither does ``create_indexes=False``."""

        def indexes(layer):
            return layer._connection.execute(
                "SELECT COUNT(*) FROM sqlite_master WHERE type = 'index'"
            ).fetchone()[0]

        database, query = q2_shaped("SUM")
        layer = SQLiteBackend(database)
        layer.prepare(query, [100.0] * 3)
        assert indexes(layer) == 7
        for aggregate in ("SUM", "COUNT"):
            layer.prepare(q2_shaped(aggregate, bound=50.0)[1], [100.0] * 3)
            assert indexes(layer) == 7
        plain = SQLiteBackend(database, create_indexes=False)
        plain.prepare(query, [100.0] * 3)
        assert indexes(plain) == 0

    def test_index_names_never_collide(self):
        """Tables ``a_b(c)`` and ``a(b_c)`` each get their own index,
        and the domain read of ``a.b_c`` searches the one on ``a``."""
        database = Database()
        database.create_table("a_b", {"c": np.arange(40.0)})
        database.create_table("a", {"b_c": np.arange(40.0)})
        predicates = [
            SelectPredicate(
                name=ref,
                expr=col(ref),
                interval=Interval(0.0, 10.0),
                direction=Direction.UPPER,
                denominator=40.0,
            )
            for ref in ("a_b.c", "a.b_c")
        ]
        query = Query.build(
            "q",
            ("a_b", "a"),
            predicates,
            AggregateConstraint(
                AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 5
            ),
        )
        layer = SQLiteBackend(database)
        layer.prepare(query, [100.0, 100.0])
        connection = layer._connection
        tables = connection.execute(
            "SELECT tbl_name FROM sqlite_master WHERE type = 'index' "
            "ORDER BY tbl_name"
        ).fetchall()
        assert tables == [("a",), ("a_b",)]
        statements: list[str] = []
        connection.set_trace_callback(statements.append)
        assert layer._expr_domain(col("a.b_c"), "a") == Interval(0.0, 39.0)
        connection.set_trace_callback(None)
        plan = [
            row[3]
            for row in connection.execute("EXPLAIN QUERY PLAN " + statements[0])
        ]
        assert [step for step in plan if step.startswith("SEARCH")] == [
            "SEARCH a USING COVERING INDEX idx_a(b_c)"
        ] * 2

    def test_join_dimension_unbounded(self):
        database = Database()
        database.create_table("a", {"x": np.array([1.0, 2.0])})
        database.create_table("b", {"y": np.array([1.0, 2.0])})
        query = Query.build(
            "q",
            ("a", "b"),
            [JoinPredicate(name="j", left=col("a.x"), right=col("b.y"))],
            AggregateConstraint(
                AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 2
            ),
        )
        layer = SQLiteBackend(database)
        prepared = layer.prepare(query, [50.0])
        assert layer.useful_max_scores(prepared) == [math.inf]

    def test_context_manager_closes(self):
        database = _db(7, n=10)
        with SQLiteBackend(database) as layer:
            prepared = layer.prepare(_query(), [10.0, 10.0])
            layer.execute_box(prepared, (0.0, 0.0))
        with pytest.raises(Exception):
            layer.execute_box(prepared, (0.0, 0.0))


    @pytest.mark.parametrize("order", ["count_first", "sum_first"])
    def test_index_with_other_keys_first_is_kept(self, order):
        """Two star-join queries put different select keys on ``ps``:
        one selects on ``ps.cost``, the other on ``ps.v`` and sums
        ``ps.cost``. Each join index of the second holds every column
        of the first's, in another order, so it does not replace it:
        in either preparation order every index each query asks for
        leads a built one, and each query's SQL runs through the plan,
        and reads the answers, of a backend that prepared it alone."""
        database, by_cost = q2_shaped("COUNT")
        selects = [
            SelectPredicate(
                name=column,
                expr=col(column),
                interval=Interval(0.0, 30.0),
                direction=Direction.UPPER,
                denominator=100.0,
            )
            for column in ("p.price", "s.bal", "ps.v")
        ]
        joins = [
            p for p in by_cost.predicates if isinstance(p, JoinPredicate)
        ]
        by_v = Query.build(
            "q2v",
            ("s", "p", "ps"),
            joins + selects,
            AggregateConstraint(
                AggregateSpec(get_aggregate("SUM"), col("ps.cost")),
                ConstraintOp.EQ,
                100.0,
            ),
        )
        queries = [by_cost, by_v] if order == "count_first" else [by_v, by_cost]
        layer = SQLiteBackend(database)
        prepared = [layer.prepare(query, [100.0] * 3) for query in queries]
        built = layer._indexes["ps"]
        assert ("sk", "cost", "pk") in built and ("sk", "v", "pk", "cost") in built
        for query in queries:
            for table, columns in _index_plan(database, query):
                assert any(
                    index[: len(columns)] == columns
                    for index in layer._indexes[table]
                ), (table, columns)

        def plan(backend, sql):
            return [
                row[3] for row in backend._connection.execute(
                    "EXPLAIN QUERY PLAN " + sql
                )
            ]

        for query, handle in zip(queries, prepared):
            alone = SQLiteBackend(database)
            alone_handle = alone.prepare(query, [100.0] * 3)
            for scores in ((0.0, 0.0, 0.0), (10.0, 20.0, 5.0)):
                statements: list[str] = []
                layer._connection.set_trace_callback(statements.append)
                state = layer.execute_box(handle, scores)
                layer._connection.set_trace_callback(None)
                assert state == alone.execute_box(alone_handle, scores)
                assert plan(layer, statements[0]) == plan(alone, statements[0])

    def test_wider_index_drops_the_one_it_covers(self):
        """Preparing Fig 11's COUNT, SUM(ps_availqty) and MAX queries on
        one Fig 8 dataset in turn: the SUM query's wider partsupp join
        indexes replace the COUNT query's, so no index is covered by
        another with the same leading column, the database holds fewer
        pages than with both (765 on this dataset), and every query
        still reads what a backend that prepared it alone reads."""
        database = generate_tpch(
            TPCHConfig(
                scale_rows=20_000, seed=7,
                tables=("supplier", "part", "partsupp"),
            )
        )
        queries = [
            build_ratio_workload(
                database, Q2_TABLES, q2_flex_specs(3, 0.2), 0.5,
                aggregate=aggregate, aggregate_attr=attribute,
                joins=Q2_JOINS, op=op,
            ).query
            for aggregate, attribute, op in (
                ("COUNT", None, ConstraintOp.EQ),
                ("SUM", "partsupp.ps_availqty", ConstraintOp.GE),
                ("MAX", "part.p_retailprice", ConstraintOp.GE),
            )
        ]
        layer = SQLiteBackend(database)
        prepared = [layer.prepare(query, [100.0] * 3) for query in queries]
        connection = layer._connection
        names = [
            row[0] for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        ]
        built = [
            (name.split("(")[0], tuple(name[:-1].split("(")[1].split(",")))
            for name in names
        ]
        for table, columns in built:
            for other_table, other in built:
                if (other_table, other) != (table, columns):
                    assert not (
                        other_table == table and other[0] == columns[0]
                        and set(columns) <= set(other)
                    ), (columns, other)
        assert len(names) == 7
        pages = connection.execute("PRAGMA page_count").fetchone()[0]
        assert pages < 765
        generation = layer._load_generation
        for query, handle in zip(queries, prepared):
            alone = SQLiteBackend(database)
            alone_handle = alone.prepare(query, [100.0] * 3)
            space = RefinedSpace(query, 20.0, [40.0] * 3)
            for scores in ((0.0, 0.0, 0.0), (10.0, 20.0, 5.0), (40.0, 40.0, 40.0)):
                assert layer.execute_box(handle, scores) == alone.execute_box(
                    alone_handle, scores
                )
            assert np.array_equal(
                layer.execute_grid_tile(handle, space, (0, 0, 0), (2, 2, 2)),
                alone.execute_grid_tile(
                    alone_handle, space, (0, 0, 0), (2, 2, 2)
                ),
            )
        assert layer._load_generation == generation


class TestBackendEquivalence:
    @pytest.mark.parametrize("aggregate", ["COUNT", "SUM", "MIN", "MAX", "AVG"])
    def test_cells_and_boxes_agree(self, aggregate):
        database = _db(8)
        query = _query(aggregate)
        memory = MemoryBackend(database)
        sqlite = SQLiteBackend(database)
        caps = [100.0, 100.0]
        prepared_m = memory.prepare(query, caps)
        prepared_s = sqlite.prepare(query, caps)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        for coords in LpBestFirstTraversal(space):
            cell_m = memory.execute_cell(prepared_m, space, coords)
            cell_s = sqlite.execute_cell(prepared_s, space, coords)
            assert cell_m == pytest.approx(cell_s, rel=1e-9, abs=1e-9), coords
        for scores in [(0.0, 0.0), (5.0, 25.0), (70.0, 70.0), (13.3, 7.7)]:
            box_m = memory.execute_box(prepared_m, scores)
            box_s = sqlite.execute_box(prepared_s, scores)
            assert box_m == pytest.approx(box_s, rel=1e-9, abs=1e-9), scores

    def test_band_join_agreement(self):
        rng = np.random.default_rng(10)
        database = Database()
        database.create_table("a", {"x": np.round(rng.uniform(0, 50, 60), 2)})
        database.create_table(
            "b",
            {
                "y": np.round(rng.uniform(0, 50, 60), 2),
                "v": np.round(rng.uniform(0, 10, 60), 2),
            },
        )
        predicates = [
            JoinPredicate(name="j", left=col("a.x"), right=col("b.y")),
            SelectPredicate(
                name="p",
                expr=col("b.v"),
                interval=Interval(0.0, 5.0),
                direction=Direction.UPPER,
                denominator=10.0,
            ),
        ]
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 100.0
        )
        query = Query.build("q", ("a", "b"), predicates, constraint)
        memory = MemoryBackend(database)
        sqlite = SQLiteBackend(database)
        caps = [20.0, 50.0]
        prepared_m = memory.prepare(query, caps)
        prepared_s = sqlite.prepare(query, caps)
        space = RefinedSpace(query, 10.0, [20.0, 50.0])
        for coords in LpBestFirstTraversal(space):
            cell_m = memory.execute_cell(prepared_m, space, coords)
            cell_s = sqlite.execute_cell(prepared_s, space, coords)
            assert cell_m == pytest.approx(cell_s, abs=1e-9), coords

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_workloads_agree(self, seed):
        rng = np.random.default_rng(seed)
        database = Database()
        database.create_table(
            "t",
            {
                "x": np.round(rng.uniform(0, 100, 80), 1),
                "y": np.round(rng.uniform(0, 100, 80), 1),
                "v": np.round(rng.uniform(0, 50, 80), 1),
            },
        )
        bounds = (float(rng.uniform(5, 60)), float(rng.uniform(5, 60)))
        aggregate = str(rng.choice(["COUNT", "SUM", "AVG"]))
        query = _query(aggregate, bounds)
        memory = MemoryBackend(database)
        sqlite = SQLiteBackend(database)
        prepared_m = memory.prepare(query, [150.0, 150.0])
        prepared_s = sqlite.prepare(query, [150.0, 150.0])
        space = RefinedSpace(query, 30.0, [80.0, 80.0])
        for coords in [(0, 0), (1, 0), (2, 3), tuple(space.max_coords)]:
            if not space.contains(coords):
                continue
            cell_m = memory.execute_cell(prepared_m, space, coords)
            cell_s = sqlite.execute_cell(prepared_s, space, coords)
            assert cell_m == pytest.approx(cell_s, rel=1e-9, abs=1e-9)


class TestIndexedMemoryBackend:
    def test_indexed_cells_identical_to_plain(self):
        database = _db(20)
        query = _query("SUM")
        plain = MemoryBackend(database)
        indexed = MemoryBackend(database, indexed=True)
        prepared_p = plain.prepare(query, [100.0, 100.0])
        prepared_i = indexed.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, 10.0, [70.0, 70.0])
        for coords in LpBestFirstTraversal(space):
            assert indexed.execute_cell(
                prepared_i, space, coords
            ) == pytest.approx(plain.execute_cell(prepared_p, space, coords))

    def test_indexed_scans_fewer_rows(self):
        database = _db(21, n=2000)
        query = _query()
        plain = MemoryBackend(database)
        indexed = MemoryBackend(database, indexed=True)
        prepared_p = plain.prepare(query, [100.0, 100.0])
        prepared_i = indexed.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, 10.0, [70.0, 70.0])
        before_p = plain.stats.rows_scanned
        before_i = indexed.stats.rows_scanned
        for coords in [(3, 0), (5, 5), (10, 2)]:
            plain.execute_cell(prepared_p, space, coords)
            indexed.execute_cell(prepared_i, space, coords)
        scanned_plain = plain.stats.rows_scanned - before_p
        scanned_indexed = indexed.stats.rows_scanned - before_i
        assert scanned_indexed < scanned_plain / 3

    def test_full_acquire_run_matches(self):
        from repro.core.acquire import Acquire, AcquireConfig
        from tests.conftest import count_query

        rng = np.random.default_rng(9)
        database = Database()
        database.create_table(
            "data",
            {"x": rng.uniform(0, 100, 3000), "y": rng.uniform(0, 100, 3000)},
        )
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=900)
        config = AcquireConfig(gamma=10, delta=0.05)
        plain = Acquire(MemoryBackend(database)).run(query, config)
        indexed = Acquire(MemoryBackend(database, indexed=True)).run(
            query, config
        )
        assert indexed.best.pscores == plain.best.pscores
        assert indexed.best.aggregate_value == plain.best.aggregate_value
        assert len(indexed.answers) == len(plain.answers)
