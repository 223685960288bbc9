"""Per-pass unit tests over small catalogs with known statistics."""

import numpy as np
import pytest

from repro.analysis import analyze, analyze_sql
from repro.core.acquire import AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.grid_explore import TiledGridExplorer
from repro.core.interval import Interval
from repro.core.predicate import Direction, JoinPredicate, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.engine.catalog import Database
from repro.engine.expression import col
from tests.conftest import count_query


def codes(report):
    return set(report.codes())


def sql(database, text, **kwargs):
    return analyze_sql(text, database, **kwargs)


class TestSatisfiabilityPass:
    def test_count_beyond_cross_product_is_acq101(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) >= 1M "
            "WHERE price <= 50",
        )
        assert "ACQ101" in codes(report) and report.has_errors

    def test_count_equal_to_table_size_is_fine(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 1000 "
            "WHERE price <= 50",
        )
        assert "ACQ101" not in codes(report) and report.ok

    def test_strict_greater_than_table_size_is_acq101(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) > 1000 "
            "WHERE price <= 50",
        )
        assert "ACQ101" in codes(report)

    def test_le_covering_everything_is_trivial(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) <= 1000 "
            "WHERE price <= 50",
        )
        assert "ACQ104" in codes(report) and report.ok

    def test_ge_zero_is_trivial(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) >= 0 "
            "WHERE price <= 50",
        )
        assert "ACQ104" in codes(report)

    def test_sum_beyond_column_total_is_acq102(self, ledger_db):
        # amount sums to 10000 over the whole table (linspace 0..100).
        report = sql(
            ledger_db,
            "SELECT * FROM entries CONSTRAINT SUM(amount) >= 99999 "
            "WHERE amount <= 50",
        )
        assert "ACQ102" in codes(report)

    def test_sum_with_negative_values_has_no_total_bound(self, ledger_db):
        # delta has negative entries: the total no longer bounds SUM.
        report = sql(
            ledger_db,
            "SELECT * FROM entries CONSTRAINT SUM(delta) >= 1e9 "
            "WHERE delta <= 50",
        )
        assert "ACQ102" not in codes(report)

    def test_sum_bound_skipped_for_joins(self, shop_db, ledger_db):
        """Joins duplicate rows, so the single-table total is no bound."""
        database = Database("joined")
        database.create_table("a", {"x": np.linspace(0.0, 100.0, 50)})
        database.create_table("b", {"x": np.linspace(0.0, 100.0, 50)})
        join = JoinPredicate(
            name="a_b", left=col("a.x"), right=col("b.x")
        )
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("SUM"), col("a.x")),
            ConstraintOp.GE,
            1e6,
        )
        query = Query.build("j", ("a", "b"), [join], constraint)
        report = analyze(query, database)
        assert "ACQ102" not in codes(report)

    def test_avg_outside_value_range_is_acq103(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT AVG(rating) = 9 "
            "WHERE price <= 50",
        )
        assert "ACQ103" in codes(report)

    def test_max_above_range_is_acq103(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT MAX(rating) > 5 "
            "WHERE price <= 50",
        )
        assert "ACQ103" in codes(report)

    def test_min_within_range_is_fine(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT MIN(rating) <= 2 "
            "WHERE price <= 50",
        )
        assert "ACQ103" not in codes(report)


class TestRefinabilityPass:
    def test_all_norefine_is_acq201(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE (price <= 50) NOREFINE",
        )
        assert "ACQ201" in codes(report) and report.has_errors

    def test_no_predicates_is_acq201(self, shop_db):
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 10
        )
        query = Query.build("empty", ("products",), [], constraint)
        report = analyze(query, shop_db)
        assert "ACQ201" in codes(report)

    def test_axis_spanning_whole_domain_is_acq202(self, shop_db):
        # price spans [1, 500]; a predicate admitting everything already
        # cannot admit more by expanding.
        query = count_query(
            "products", {"price": 500.0}, target=500, lo=1.0, domain_hi=500.0
        )
        report = analyze(query, shop_db)
        dead = [d for d in report.diagnostics if d.code == "ACQ202"]
        assert len(dead) == 1
        assert dead[0].subject == "price_le"

    def test_live_axis_is_not_flagged(self, shop_db):
        query = count_query(
            "products", {"price": 50.0}, target=500, lo=1.0, domain_hi=500.0
        )
        assert "ACQ202" not in codes(analyze(query, shop_db))

    def test_contraction_without_shrinkable_axis_is_acq203(self, shop_db):
        point = SelectPredicate(
            name="stock_eq",
            expr=col("products.stock"),
            interval=Interval(10.0, 10.0),
            direction=Direction.POINT,
        )
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.LE, 3
        )
        query = Query.build("c", ("products",), [point], constraint)
        report = analyze(query, shop_db)
        assert "ACQ203" in codes(report)

    def test_contraction_with_shrinkable_axis_is_fine(self, shop_db):
        query = count_query(
            "products",
            {"price": 50.0},
            target=3,
            op=ConstraintOp.LE,
            lo=1.0,
            domain_hi=500.0,
        )
        assert "ACQ203" not in codes(analyze(query, shop_db))


class TestAggregatePass:
    def test_avg_warns_about_empty_sets(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT AVG(rating) = 3 "
            "WHERE price <= 50",
        )
        assert "ACQ302" in codes(report) and report.ok

    def test_sum_over_signed_column_is_acq303(self, ledger_db):
        report = sql(
            ledger_db,
            "SELECT * FROM entries CONSTRAINT SUM(delta) >= 100 "
            "WHERE delta <= 50",
        )
        assert "ACQ303" in codes(report)

    def test_sum_over_nonnegative_column_is_fine(self, ledger_db):
        report = sql(
            ledger_db,
            "SELECT * FROM entries CONSTRAINT SUM(amount) >= 100 "
            "WHERE amount <= 50",
        )
        assert "ACQ303" not in codes(report)


class TestCostPass:
    def test_every_live_query_gets_a_cost_note(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE price <= 50",
        )
        notes = [d for d in report.diagnostics if d.code == "ACQ403"]
        assert len(notes) == 1
        assert "grid=" in notes[0].message

    def test_tiny_gamma_blows_the_budget(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE price <= 400 AND rating <= 4 AND stock <= 50",
            config=AcquireConfig(gamma=0.01, max_grid_queries=10_000),
        )
        assert "ACQ401" in codes(report)

    def test_join_axis_without_stats_is_acq402(self):
        database = Database("j")
        database.create_table("a", {"x": np.linspace(0.0, 100.0, 50)})
        database.create_table("b", {"x": np.linspace(0.0, 100.0, 50)})
        join = JoinPredicate(name="a_b", left=col("a.x"), right=col("b.x"))
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.GE, 10
        )
        query = Query.build("j", ("a", "b"), [join], constraint)
        report = analyze(query, database)
        flagged = [d for d in report.diagnostics if d.code == "ACQ402"]
        assert [d.subject for d in flagged] == ["a_b"]

    def test_explicit_limit_silences_acq402(self):
        database = Database("j")
        database.create_table("a", {"x": np.linspace(0.0, 100.0, 50)})
        database.create_table("b", {"x": np.linspace(0.0, 100.0, 50)})
        join = JoinPredicate(
            name="a_b", left=col("a.x"), right=col("b.x")
        ).with_limit(40.0)
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.GE, 10
        )
        query = Query.build("j", ("a", "b"), [join], constraint)
        assert "ACQ402" not in codes(analyze(query, database))


class TestPlanPass:
    """ACQ5xx: plan-cost and cache-geometry checks."""

    def test_grid_over_cap_is_acq501_warning(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE price <= 400 AND rating <= 4",
            config=AcquireConfig(materialize_cell_cap=10),
        )
        assert "ACQ501" in codes(report) and report.ok
        (diag,) = [d for d in report.diagnostics if d.code == "ACQ501"]
        assert "tiles" in diag.message

    def test_forced_materialized_over_cap_is_error(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE price <= 400 AND rating <= 4",
            config=AcquireConfig(
                materialize_cell_cap=10, explore_mode="materialized"
            ),
        )
        assert "ACQ501" in codes(report) and report.has_errors
        # execution would raise, so no plan estimate is possible
        assert "ACQ503" not in codes(report)

    def test_acq501_tile_shape_is_the_engines(self, monkeypatch):
        """ACQ501 names the tile shape the driver's grid engine runs:
        both come from the plan, which caps tiles by
        ``max_grid_queries`` as well as ``materialize_cell_cap``."""
        from repro.core import acquire
        from repro.engine.memory_backend import MemoryBackend

        rng = np.random.default_rng(3)
        database = Database("g")
        database.create_table(
            "data", {c: rng.uniform(0, 100, 200) for c in ("x", "y")}
        )
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=150)
        config = AcquireConfig(  # an 8x8 grid, 20-cell tiles
            gamma=20.0, materialize_cell_cap=50, max_grid_queries=20,
            explore_mode="tiled",
        )
        engines = []

        def record(*args, **kwargs):
            engines.append(TiledGridExplorer(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(acquire, "TiledGridExplorer", record)
        acquire.Acquire(MemoryBackend(database)).run(query, config)
        (engine,) = engines
        assert engine.space.grid_size == 64
        (diag,) = [
            d for d in analyze(query, database, config).diagnostics
            if d.code == "ACQ501"
        ]
        assert engine.tile_shape == (4, 4)
        assert "4 tiles of 16 cells (shape [4, 4])" in diag.message

    def test_grid_within_cap_has_no_acq501(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE price <= 50",
        )
        assert "ACQ501" not in codes(report)

    def test_statless_axis_with_cache_is_acq502(self):
        from repro.core.grid_cache import GridTensorCache

        database = Database("j")
        database.create_table("a", {"x": np.linspace(0.0, 100.0, 50)})
        database.create_table("b", {"x": np.linspace(0.0, 100.0, 50)})
        join = JoinPredicate(name="a_b", left=col("a.x"), right=col("b.x"))
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.GE, 10
        )
        query = Query.build("j", ("a", "b"), [join], constraint)
        with_cache = analyze(
            query,
            database,
            config=AcquireConfig(grid_cache=GridTensorCache()),
        )
        assert "ACQ502" in codes(with_cache)
        (diag,) = [
            d for d in with_cache.diagnostics if d.code == "ACQ502"
        ]
        assert "'a_b'" in diag.message
        # without a cache there is nothing whose keys could fragment
        assert "ACQ502" not in codes(analyze(query, database))

    def test_every_live_query_gets_a_plan_note(self, shop_db):
        report = sql(
            shop_db,
            "SELECT * FROM products CONSTRAINT COUNT(*) = 10 "
            "WHERE price <= 50",
        )
        notes = [d for d in report.diagnostics if d.code == "ACQ503"]
        assert len(notes) == 1
        assert "explore mode" in notes[0].message


class TestLayerSizes:
    """The DP behind the ACQ403 per-layer query counts."""

    def test_matches_enumeration(self):
        import itertools

        from repro.core.refined_space import RefinedSpace

        query = count_query("data", {"x": 40.0, "y": 40.0}, target=10)
        space = RefinedSpace(query, gamma=10.0, max_scores=[30.0, 20.0])
        sizes = space.layer_sizes(8)
        for total, expected in enumerate(sizes):
            brute = sum(
                1
                for coords in itertools.product(
                    range(space.max_coords[0] + 1),
                    range(space.max_coords[1] + 1),
                )
                if sum(coords) == total
            )
            assert brute == expected

    def test_rejects_negative(self):
        from repro.core.refined_space import RefinedSpace
        from repro.exceptions import QueryModelError

        query = count_query("data", {"x": 40.0}, target=10)
        space = RefinedSpace(query, gamma=10.0, max_scores=[30.0])
        with pytest.raises(QueryModelError):
            space.layer_sizes(-1)
