"""Cross-module integration stories.

Each test walks a complete user journey through the public API:
dialect text -> binder -> ACQUIRE -> refined SQL, on both evaluation
layers, including the paper's own example queries.
"""

import sqlite3

import numpy as np
import pytest

from repro import (
    Acquire,
    AcquireConfig,
    Database,
    LInfNorm,
    MemoryBackend,
    SQLiteBackend,
    format_refined_query,
    parse_acq,
)
from repro.datagen.tpch import TPCHConfig, generate_tpch
from repro.workloads.templates import q2_prime_query


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(
        TPCHConfig(scale_rows=2000,
                   tables=("supplier", "part", "partsupp"))
    )


class TestDialectToRefinedSQL:
    def test_full_pipeline_on_both_backends(self):
        rng = np.random.default_rng(17)
        database = Database()
        database.create_table(
            "sales",
            {
                "amount": np.round(rng.uniform(0, 1000, 4000), 2),
                "margin": np.round(rng.uniform(0, 0.5, 4000), 4),
            },
        )
        acq = parse_acq(
            "SELECT * FROM sales CONSTRAINT COUNT(*) = 800 "
            "WHERE amount <= 200 AND margin <= 0.1",
            database,
        )
        results = {}
        for name, layer in (
            ("memory", MemoryBackend(database)),
            ("sqlite", SQLiteBackend(database)),
        ):
            results[name] = Acquire(layer).run(
                acq, AcquireConfig(gamma=10, delta=0.05)
            )
        assert results["memory"].satisfied
        assert results["sqlite"].satisfied
        assert results["memory"].best.qscore == pytest.approx(
            results["sqlite"].best.qscore
        )
        assert results["memory"].best.aggregate_value == pytest.approx(
            results["sqlite"].best.aggregate_value
        )

    def test_refined_sql_executes_with_promised_count(self):
        rng = np.random.default_rng(23)
        database = Database()
        database.create_table(
            "m", {"a": rng.uniform(0, 10, 2000), "b": rng.uniform(0, 10, 2000)}
        )
        acq = parse_acq(
            "SELECT * FROM m CONSTRAINT COUNT(*) = 700 "
            "WHERE a <= 3 AND b <= 3",
            database,
        )
        result = Acquire(MemoryBackend(database)).run(
            acq, AcquireConfig(gamma=8, delta=0.05)
        )
        assert result.satisfied
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE m (a REAL, b REAL)")
        table = database.table("m")
        connection.executemany(
            "INSERT INTO m VALUES (?, ?)",
            zip(table.column("a").tolist(), table.column("b").tolist()),
        )
        for answer in result.answers:
            sql = format_refined_query(answer).replace(
                "SELECT *", "SELECT COUNT(*)", 1
            )
            count = connection.execute(sql).fetchone()[0]
            assert count == answer.aggregate_value


class TestPaperQ2Pipeline:
    def test_q2_prime_join_workload(self, tpch):
        """Example 2 end to end: joins with NOREFINE, SUM constraint."""
        acq = q2_prime_query(tpch, target=150_000)
        for layer in (MemoryBackend(tpch), SQLiteBackend(tpch)):
            result = Acquire(layer).run(
                acq, AcquireConfig(gamma=10, delta=0.05)
            )
            assert result.best is not None
            if result.satisfied:
                assert result.best.aggregate_value >= 150_000 * 0.95
        # NOREFINE join predicates were never altered: the refined
        # dimensions only cover the two select predicates.
        assert len(result.best.pscores) == 2

    def test_dialect_q2_matches_programmatic(self, tpch):
        text = """
        SELECT * FROM supplier, part, partsupp
        CONSTRAINT SUM(ps_availqty) >= 0.15M
        WHERE (s_suppkey = ps_suppkey) NOREFINE AND
              (p_partkey = ps_partkey) NOREFINE AND
              (p_retailprice < 1000) AND (s_acctbal < 2000)
        """
        parsed = parse_acq(text, tpch)
        assert parsed.dimensionality == 2
        assert len(parsed.join_predicates) == 2
        assert all(not j.refinable for j in parsed.join_predicates)
        result = Acquire(MemoryBackend(tpch)).run(
            parsed, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.best is not None


class TestNormChoiceEndToEnd:
    def test_linf_traversal_full_run(self):
        rng = np.random.default_rng(29)
        database = Database()
        database.create_table(
            "t", {"x": rng.uniform(0, 100, 3000), "y": rng.uniform(0, 100, 3000)}
        )
        acq = parse_acq(
            "SELECT * FROM t CONSTRAINT COUNT(*) = 900 "
            "WHERE x <= 30 AND y <= 30",
            database,
        )
        result = Acquire(MemoryBackend(database)).run(
            acq,
            AcquireConfig(gamma=10, delta=0.05, norm=LInfNorm()),
        )
        assert result.satisfied
        # Under L-inf the answer's QScore is its max per-dim PScore.
        best = result.best
        assert best.qscore == pytest.approx(max(best.pscores))


class TestStatsConsistency:
    def test_work_counters_add_up(self, tpch):
        acq = q2_prime_query(tpch, target=120_000)
        layer = MemoryBackend(tpch)
        result = Acquire(layer).run(
            acq,
            AcquireConfig(gamma=10, delta=0.05, explore_mode="incremental"),
        )
        stats = result.stats
        assert stats.cells_executed <= stats.grid_queries_examined + 1
        assert (
            stats.execution.cell_queries == stats.cells_executed
        )
        assert stats.execution.queries_executed == (
            stats.execution.cell_queries + stats.execution.box_queries
        )

    def test_shell_work_counters_add_up(self, tpch):
        """Under the default ``auto`` plan every round trip is a shell
        pass or a box query, and the shells' cells are the ball's."""
        acq = q2_prime_query(tpch, target=120_000)
        layer = MemoryBackend(tpch)
        result = Acquire(layer).run(acq, AcquireConfig(gamma=10, delta=0.05))
        stats = result.stats
        execution = stats.execution
        assert stats.explore_mode == "shells"
        assert execution.cell_queries == 0
        assert execution.queries_executed == (
            execution.grid_materializations + execution.box_queries
        )
        assert stats.cells_executed == execution.grid_cells
