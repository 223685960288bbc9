"""Differential suite for the grid Explore engine.

Proves the contract of ``docs/EXPLORE_MODES.md``:

* the whole-grid ``GridExplorer`` (the materialized mode) has block
  states **bit-identical** to the serial incremental
  :class:`~repro.core.explore.Explorer` on the exact backends (memory
  in every mode, sqlite, and the base-class ``execute_grid``
  fallback), matches the estimation backends' serial arithmetic
  exactly as well, and a cache-hit replay reproduces every block state
  bit for bit;
* ``execute_grid_tile`` returns exactly the corresponding slice of
  ``execute_grid`` on every backend;
* turning materialization on is observable only in the round-trip
  counters (``grid_materializations`` / ``grid_cells`` /
  ``queries_executed`` / cache counters), never in an answer;
* an ``auto`` search reads QScore shells, answers like every fixed
  mode, makes at most serial's round trips plus one and one grid pass
  per growth factor of the QScore it reaches, reads few cells for
  early-terminating searches, and goes on cell by cell once a ball's
  box would exceed the cell cap; with a grid cache it plans the
  whole-grid read under both caps, and shells over them.

Aggregate values are multiples of 0.25 (exact binary fractions), as in
``tests/engine/test_differential.py``, so the bit-identical assertions
cannot be defeated by legitimate reassociation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import (
    AggregateSpec,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.core.expand import make_traversal
from repro.core.explore import Explorer
from repro.core.grid_cache import (
    GridTensorCache,
    layer_cache_token,
    query_fingerprint,
)
from repro.core.grid_explore import BALL_GROWTH, GridExplorer, prefix_combine
from repro.core.interval import Interval
from repro.core.plan import choose_explore_mode
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import EvaluationLayer
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.histogram_backend import HistogramBackend
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sampling import SamplingBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.exceptions import EngineError, QueryModelError

ALL_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")
HISTOGRAM_AGGREGATES = ("COUNT", "SUM", "AVG")


def _database(seed: int, n: int) -> Database:
    """Random table; dimension and value columns are exact binary
    fractions (multiples of 0.25)."""
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "t",
        {
            "x": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "y": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "z": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "v": np.floor(rng.uniform(-200, 200, n)) / 4.0,
        },
    )
    return database


def _query(
    aggregate,
    bounds=(30.0, 30.0),
    columns=("x", "y"),
    target=100.0,
    op=ConstraintOp.EQ,
) -> Query:
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col("t." + column),
            interval=Interval(0.0, bound),
            direction=Direction.UPPER,
            denominator=100.0,
        )
        for i, (column, bound) in enumerate(zip(columns, bounds))
    ]
    agg = (
        get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
    )
    attr = col("t.v") if agg.needs_attribute else None
    constraint = AggregateConstraint(AggregateSpec(agg, attr), op, target)
    return Query.build("q", ("t",), predicates, constraint)


def _grid_coords(space: RefinedSpace) -> list[tuple[int, ...]]:
    return list(make_traversal(space, "lp"))


class _NoGridWrapper(EvaluationLayer):
    """Delegating layer hiding the inner backend's native grid pass —
    its ``execute_grid`` / ``execute_grid_tile`` run the base-class
    per-cell assembly, the path a third-party ``EvaluationLayer``
    subclass without a one-pass implementation takes."""

    def __init__(self, inner: EvaluationLayer) -> None:
        super().__init__()
        self._inner = inner

    def prepare(self, query, dim_caps=None):
        return self._inner.prepare(query, dim_caps)

    def useful_max_scores(self, prepared):
        return self._inner.useful_max_scores(prepared)

    def execute_cell(self, prepared, space, coords):
        self._count_query("cell")
        return self._inner.execute_cell(prepared, space, coords)

    def execute_box(self, prepared, scores):
        self._count_query("box")
        return self._inner.execute_box(prepared, scores)


def _make_layer(backend_name: str, database: Database) -> EvaluationLayer:
    if backend_name == "memory":
        return MemoryBackend(database)
    if backend_name == "memory-vectorized":
        return MemoryBackend(database, vectorized_grid=True)
    if backend_name == "sqlite":
        return SQLiteBackend(database)
    if backend_name == "fallback":
        return _NoGridWrapper(MemoryBackend(database))
    raise AssertionError(backend_name)


def _pair(backend_name, query, dim_caps, space, aggregate, database):
    """A serial Explorer and a whole-grid GridExplorer on independent
    layers."""
    serial_layer = _make_layer(backend_name, database)
    grid_layer = _make_layer(backend_name, database)
    serial = Explorer(
        serial_layer, serial_layer.prepare(query, dim_caps), space, aggregate
    )
    grid = GridExplorer(
        grid_layer, grid_layer.prepare(query, dim_caps), space, aggregate,
        whole=True,
    )
    return serial, grid, grid_layer


# ----------------------------------------------------------------------
# GridExplorer == serial Explorer, bit-identical
# ----------------------------------------------------------------------
class TestGridMatchesSerial:
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize(
        "backend_name", ["memory", "memory-vectorized", "sqlite", "fallback"]
    )
    def test_exact_backends(self, backend_name, aggregate):
        database = _database(seed=21, n=180)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial, grid, grid_layer = _pair(
            backend_name,
            query,
            [100.0, 100.0],
            space,
            query.constraint.spec.aggregate,
            database,
        )
        for coords in _grid_coords(space):
            assert grid.block_state(coords) == serial.block_state(coords), (
                coords
            )
            assert grid.compute_aggregate(coords) == serial.compute_aggregate(
                coords
            )
        assert grid_layer.stats.grid_materializations == 1
        assert grid_layer.stats.grid_cells == space.grid_size
        assert grid.cells_executed == space.grid_size
        assert grid.cells_skipped == 0

    @pytest.mark.parametrize(
        "columns, bounds, max_scores",
        [
            (("x",), (30.0,), [70.0]),
            (("x", "y", "z"), (40.0, 40.0, 40.0), [40.0, 40.0, 40.0]),
        ],
    )
    @pytest.mark.parametrize("aggregate", ("COUNT", "SUM"))
    def test_other_dimensionalities(self, aggregate, columns, bounds,
                                    max_scores):
        database = _database(seed=22, n=150)
        query = _query(aggregate, bounds, columns)
        space = RefinedSpace(query, 15.0 * len(columns), max_scores)
        serial, grid, _ = _pair(
            "memory",
            query,
            [100.0] * len(columns),
            space,
            query.constraint.spec.aggregate,
            database,
        )
        for coords in _grid_coords(space):
            assert grid.block_state(coords) == serial.block_state(coords)

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_empty_table(self, aggregate):
        database = _database(seed=23, n=0)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial, grid, _ = _pair(
            "memory",
            query,
            [100.0, 100.0],
            space,
            query.constraint.spec.aggregate,
            database,
        )
        for coords in _grid_coords(space):
            assert grid.block_state(coords) == serial.block_state(coords)

    @pytest.mark.parametrize("aggregate", HISTOGRAM_AGGREGATES)
    def test_histogram_backend(self, aggregate):
        database = _database(seed=24, n=180)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial_layer = HistogramBackend(database)
        grid_layer = HistogramBackend(database)
        agg = query.constraint.spec.aggregate
        serial = Explorer(
            serial_layer, serial_layer.prepare(query, [100.0, 100.0]),
            space, agg,
        )
        grid = GridExplorer(
            grid_layer, grid_layer.prepare(query, [100.0, 100.0]),
            space, agg, whole=True,
        )
        for coords in _grid_coords(space):
            assert grid.block_state(coords) == serial.block_state(coords)

    @pytest.mark.parametrize("aggregate", ("COUNT", "SUM"))
    def test_sampling_backend(self, aggregate):
        database = _database(seed=25, n=300)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial_layer = SamplingBackend(database, fraction=0.5, seed=3)
        grid_layer = SamplingBackend(database, fraction=0.5, seed=3)
        agg = query.constraint.spec.aggregate
        serial = Explorer(
            serial_layer, serial_layer.prepare(query, [100.0, 100.0]),
            space, agg,
        )
        grid = GridExplorer(
            grid_layer, grid_layer.prepare(query, [100.0, 100.0]),
            space, agg, whole=True,
        )
        for coords in _grid_coords(space):
            assert grid.block_state(coords) == serial.block_state(coords)

    def test_user_defined_aggregate_generic_fold(self):
        """A user aggregate takes the generic Python prefix fold and
        still matches the serial Explorer bit for bit."""
        total = UserDefinedAggregate(
            name="TOTAL",
            identity=(0.0,),
            combine=lambda left, right: (left[0] + right[0],),
            lift=lambda values: (float(np.sum(values)),),
        )
        database = _database(seed=26, n=160)
        query = _query(total)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial, grid, _ = _pair(
            "memory", query, [100.0, 100.0], space, total, database
        )
        for coords in _grid_coords(space):
            assert grid.block_state(coords) == serial.block_state(coords)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=0, max_value=120),
        aggregate=st.sampled_from(ALL_AGGREGATES),
        backend_name=st.sampled_from(("memory", "sqlite")),
        bound_x=st.floats(min_value=5.0, max_value=60.0),
        bound_y=st.floats(min_value=5.0, max_value=60.0),
        gamma=st.floats(min_value=16.0, max_value=40.0),
    )
    def test_random_grids(
        self, seed, n, aggregate, backend_name, bound_x, bound_y, gamma
    ):
        """Property: over random data, grids and aggregates, every
        block state of the materialized engine equals the serial
        Explorer's — including empty cells and empty tables."""
        database = _database(seed=seed, n=n)
        query = _query(aggregate, (bound_x, bound_y))
        space = RefinedSpace(query, gamma, [80.0, 80.0])
        serial, grid, _ = _pair(
            backend_name,
            query,
            [150.0, 150.0],
            space,
            query.constraint.spec.aggregate,
            database,
        )
        for coords in _grid_coords(space)[:40]:
            assert grid.block_state(coords) == serial.block_state(coords), (
                coords
            )


# ----------------------------------------------------------------------
# Bulk layer reads: one gather == per-point reads
# ----------------------------------------------------------------------
EXACT_BACKENDS = ("memory", "memory-vectorized", "sqlite", "fallback")


def _hex(values):
    """Bitwise view of finalized values; every NaN reads ``'nan'``."""
    return [float(value).hex() for value in values]


def _shaped_space(query, extents):
    """A space whose grid is exactly ``extent + 1`` points per axis."""
    step = 10.0
    return RefinedSpace(
        query, step * len(extents), [step * e for e in extents], step=step
    )


def _grid_explorer(backend_name, database, query, space, aggregate=None):
    layer = _make_layer(backend_name, database)
    return GridExplorer(
        layer,
        layer.prepare(query, [100.0] * space.d),
        space,
        aggregate or query.constraint.spec.aggregate,
        whole=True,
    )


def _assert_bulk_matches_pointwise(grid, space):
    traversal = make_traversal(space, "lp")
    for layer in traversal.layers():
        bulk = list(grid.compute_aggregates(layer))
        assert _hex(bulk) == _hex(
            [grid.compute_aggregate(coords) for coords in layer]
        ), layer
    everything = _grid_coords(space)
    assert _hex(grid.compute_aggregates(everything)) == _hex(
        [grid.compute_aggregate(coords) for coords in everything]
    )
    assert list(grid.compute_aggregates([])) == []


class TestBulkLayerRead:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=0, max_value=60),
        aggregate=st.sampled_from(ALL_AGGREGATES),
        backend_name=st.sampled_from(EXACT_BACKENDS),
        extents=st.lists(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=3
        ),
        bound=st.floats(min_value=1.0, max_value=40.0),
    )
    def test_random_shapes_match_pointwise(
        self, seed, n, aggregate, backend_name, extents, bound
    ):
        """Property: over random grid shapes, data and backends, the
        materialized engine's bulk read equals per-point
        ``compute_aggregate`` bit for bit — including empty cells,
        whose MIN/MAX/AVG states finalize to NaN."""
        columns = ("x", "y", "z")[: len(extents)]
        query = _query(aggregate, (bound,) * len(extents), columns)
        space = _shaped_space(query, extents)
        grid = _grid_explorer(
            backend_name, _database(seed=seed, n=n), query, space
        )
        _assert_bulk_matches_pointwise(grid, space)

    @pytest.mark.parametrize("backend_name", EXACT_BACKENDS)
    @pytest.mark.parametrize("aggregate", ("MIN", "MAX", "AVG"))
    def test_empty_cells_finalize_to_nan(self, backend_name, aggregate):
        """An empty table leaves every state at the identity: MIN/MAX
        at +-inf and AVG at zero count, all of which finalize to NaN."""
        query = _query(aggregate)
        space = _shaped_space(query, (3, 2))
        grid = _grid_explorer(
            backend_name, _database(seed=29, n=0), query, space
        )
        values = list(grid.compute_aggregates(_grid_coords(space)))
        assert len(values) == space.grid_size
        assert all(np.isnan(values))
        _assert_bulk_matches_pointwise(grid, space)

    @pytest.mark.parametrize("backend_name", EXACT_BACKENDS)
    def test_user_defined_aggregate_object_states(self, backend_name):
        """A user aggregate's blocks are an object array of state
        tuples; the bulk read finalizes the gathered tuples as they are."""
        mean = UserDefinedAggregate(
            name="MEAN",
            identity=(0.0, 0.0),
            combine=lambda left, right: (
                left[0] + right[0], left[1] + right[1]
            ),
            lift=lambda values: (float(np.sum(values)), float(len(values))),
            finalize=lambda state: (
                state[0] / state[1] if state[1] else float("nan")
            ),
            sql_selects=lambda attr: [f"SUM({attr})", f"COUNT({attr})"],
        )
        query = _query(mean, (10.0, 10.0))
        space = _shaped_space(query, (4, 3))
        grid = _grid_explorer(
            backend_name, _database(seed=30, n=40), query, space, mean
        )
        _assert_bulk_matches_pointwise(grid, space)
        assert grid._blocks.dtype == object

    def test_bulk_read_leaves_cached_blocks_unchanged(self):
        database = _database(seed=31, n=0)
        query = _query("MIN")
        space = _shaped_space(query, (3, 3))
        cache = GridTensorCache()
        layer = MemoryBackend(database)
        grid = GridExplorer(
            layer,
            layer.prepare(query, [100.0, 100.0]),
            space,
            query.constraint.spec.aggregate,
            whole=True,
            cache=cache,
        )
        grid.block_state(space.origin)
        before = grid._blocks.copy()
        list(grid.compute_aggregates(_grid_coords(space)))
        assert np.array_equal(grid._blocks, before)
        assert np.isinf(before).all()

    @pytest.mark.parametrize("engine", ("incremental", "handover"))
    def test_lazy_engines_compute_only_what_is_pulled(self, engine):
        database = _database(seed=32, n=120)
        query = _query("COUNT")
        space = _shaped_space(query, (5, 5))
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        aggregate = query.constraint.spec.aggregate
        if engine == "incremental":
            explorer = Explorer(layer, prepared, space, aggregate)
        else:  # every ball is over a 1-cell cap: cell by cell
            explorer = GridExplorer(
                layer, prepared, space, aggregate, cell_cap=1
            )
        coords = _grid_coords(space)
        values = explorer.compute_aggregates(coords)
        assert layer.stats.queries_executed == 0
        first = next(values)
        pulled_once = layer.stats.queries_executed
        assert pulled_once == 1
        rest = list(values)
        assert layer.stats.queries_executed > pulled_once
        reference = _grid_explorer("memory", database, query, space)
        assert _hex([first] + rest) == _hex(
            reference.compute_aggregates(coords)
        )


# ----------------------------------------------------------------------
# Counters: one round trip for the whole grid
# ----------------------------------------------------------------------
class TestGridCounters:
    def test_single_round_trip_on_native_backends(self):
        database = _database(seed=27, n=150)
        query = _query("COUNT")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        for backend_name in ("memory", "sqlite"):
            layer = _make_layer(backend_name, database)
            grid = GridExplorer(
                layer,
                layer.prepare(query, [100.0, 100.0]),
                space,
                query.constraint.spec.aggregate,
                whole=True,
            )
            before = layer.stats.snapshot()
            for coords in _grid_coords(space):
                grid.compute_aggregate(coords)
            delta = layer.stats.since(before)
            assert delta.queries_executed == 1, backend_name
            assert delta.grid_materializations == 1
            assert delta.grid_cells == space.grid_size

    def test_materialization_is_lazy_and_single(self):
        database = _database(seed=28, n=100)
        query = _query("COUNT")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = MemoryBackend(database)
        grid = GridExplorer(
            layer,
            layer.prepare(query, [100.0, 100.0]),
            space,
            query.constraint.spec.aggregate,
            whole=True,
        )
        assert layer.stats.grid_materializations == 0
        assert grid.cells_executed == 0
        assert grid.prime_cells([space.origin]) == 0
        assert layer.stats.grid_materializations == 0  # priming is a no-op
        grid.compute_aggregate(space.origin)
        grid.compute_aggregate(space.max_coords)
        assert layer.stats.grid_materializations == 1


# ----------------------------------------------------------------------
# Whole-grid prefix passes
# ----------------------------------------------------------------------
class TestPrefixCombine:
    def test_count_cumulative_sum_all_axes(self):
        cells = np.array(
            [[[1.0], [2.0]], [[3.0], [4.0]]]
        )  # 2x2 grid, arity-1 states
        blocks = prefix_combine(cells.copy(), get_aggregate("COUNT"))
        assert blocks[0, 0, 0] == 1.0
        assert blocks[1, 0, 0] == 4.0
        assert blocks[0, 1, 0] == 3.0
        assert blocks[1, 1, 0] == 10.0

    def test_max_running_maximum(self):
        cells = np.array([[[5.0], [1.0]], [[2.0], [9.0]]])
        blocks = prefix_combine(cells.copy(), get_aggregate("MAX"))
        assert blocks[1, 1, 0] == 9.0
        assert blocks[1, 0, 0] == 5.0
        assert blocks[0, 1, 0] == 5.0

    def test_generic_fold_matches_vectorized(self):
        summish = UserDefinedAggregate(
            name="TOTAL",
            identity=(0.0,),
            combine=lambda left, right: (left[0] + right[0],),
            lift=lambda values: (float(np.sum(values)),),
        )
        rng = np.random.default_rng(5)
        cells = np.floor(rng.uniform(0, 40, (3, 4, 2, 1))) / 4.0
        # Every stage the prefix passes go through, down to the cells.
        for passes in (0, 1, 2, None):
            generic = prefix_combine(cells.copy(), summish, passes)
            vectorized = prefix_combine(
                cells.copy(), get_aggregate("SUM"), passes
            )
            assert generic.dtype == object
            for index in np.ndindex(generic.shape):
                assert generic[index] == (vectorized[index][0],)
        assert np.array_equal(
            prefix_combine(cells, get_aggregate("SUM"), 0), cells
        )


# ----------------------------------------------------------------------
# Plan chooser (explore_mode='auto')
# ----------------------------------------------------------------------
def _plan(query, config, max_scores=(70.0, 70.0)):
    space = RefinedSpace(query, 20.0, list(max_scores))
    return choose_explore_mode(space, config)


class TestPlanChooser:
    def test_auto_reads_shells(self):
        plan = _plan(_query("COUNT", target=380.0), AcquireConfig(
            explore_mode="auto"))
        assert (plan.mode, plan.reason) == ("shells", "auto")

    def test_dense_search_reads_few_shells(self):
        """A search that walks most of the grid reads it in a few
        shells, never cell by cell, and answers like serial."""
        database = _database(seed=33, n=200)
        query = _query("COUNT", target=380.0)
        run = _run(database, query, explore_mode="auto")
        plain = _run(database, query, explore_mode="incremental")
        assert (run.stats.explore_mode, run.stats.plan_reason) == (
            "shells", "auto"
        )
        execution = run.stats.execution
        assert execution.cell_queries == 0
        assert 1 < execution.grid_materializations <= _shell_bound(run)
        assert run.stats.grid_queries_examined > 100
        assert _answer_key(run) == _answer_key(plain)

    def test_dense_search_materializes(self):
        """With a grid cache configured, ``auto`` runs the whole-grid
        engine: a dense search makes one materialized pass, whose block
        tensor the cache keeps, and answers like serial."""
        database = _database(seed=33, n=200)
        query = _query("COUNT", target=380.0)
        run = _run(database, query, explore_mode="auto",
                   grid_cache=GridTensorCache())
        plain = _run(database, query, explore_mode="incremental")
        assert (run.stats.explore_mode, run.stats.plan_reason) == (
            "materialized", "grid-cache"
        )
        assert run.stats.execution.grid_materializations == 1
        assert run.stats.execution.cell_queries == 0
        assert _answer_key(run) == _answer_key(plain)

    def test_eq_overshoot_reads_one_shell(self):
        """An equality target below the origin value heads to the
        contraction path; auto reads only the first shell, the ball of
        the origin's nearest neighbours, before handing over."""
        database = _database(seed=31, n=400)
        run = _run(database, _query("COUNT", target=5.0),
                   explore_mode="auto")
        assert run.stats.execution.grid_materializations == 1
        assert run.stats.execution.grid_cells == 3

    def test_early_terminating_search_reads_few_cells(self):
        """A target reached after a layer or two: the search's shells
        read a handful of cells, not the 225-cell grid."""
        database = _database(seed=31, n=400)
        run = _run(database, _query("COUNT", target=45.0),
                   explore_mode="auto")
        assert run.satisfied
        assert (run.stats.explore_mode, run.stats.plan_reason) == (
            "shells", "auto"
        )
        execution = run.stats.execution
        assert execution.cell_queries == 0
        assert execution.grid_materializations <= _shell_bound(run)
        assert execution.grid_cells == run.stats.cells_executed <= 10

    def test_grid_over_cap_goes_cell_by_cell(self):
        """Past a 4-cell cap the shell search goes on cell by cell and
        answers like serial; no shell read holds more than 4 cells."""
        plan = _plan(_query("COUNT", target=380.0), AcquireConfig(
            explore_mode="auto", materialize_cell_cap=4))
        assert (plan.mode, plan.reason) == ("shells", "auto")
        database = _database(seed=33, n=200)
        query = _query("COUNT", target=380.0)
        run = _run(database, query, explore_mode="auto",
                   materialize_cell_cap=4)
        plain = _run(database, query, explore_mode="incremental")
        assert run.stats.explore_mode == "incremental"
        assert _answer_key(run) == _answer_key(plain)
        execution = run.stats.execution
        assert execution.grid_cells <= 4 * execution.grid_materializations
        assert execution.cell_queries > 0

    def test_grid_over_budget_reads_shells(self):
        """The whole-grid plan ``auto`` runs with a grid cache must
        respect ``max_grid_queries``: a grid bigger than the budget may
        not be materialized whole even when it fits the tensor cap."""
        plan = _plan(_query("COUNT", target=380.0), AcquireConfig(
            explore_mode="auto", max_grid_queries=4,
            grid_cache=GridTensorCache()))
        assert (plan.mode, plan.reason) == ("shells", "auto")

    def test_forced_materialized_over_cap_raises(self):
        with pytest.raises(QueryModelError):
            _plan(_query("COUNT"), AcquireConfig(
                explore_mode="materialized", materialize_cell_cap=4))

    def test_statless_layer_reads_shells(self):
        """Shells need no catalog statistics and no native grid pass: a
        layer without either runs the base-class shell read, one cell
        query per shell cell, and answers like serial."""
        database = _database(seed=32, n=100)
        query = _query("COUNT", target=380.0)
        run = Acquire(_NoGridWrapper(MemoryBackend(database))).run(
            query, AcquireConfig(explore_mode="auto"))
        plain = Acquire(_NoGridWrapper(MemoryBackend(database))).run(
            query, AcquireConfig(explore_mode="incremental"))
        assert run.stats.explore_mode == "shells"
        assert run.stats.execution.grid_materializations >= 1
        assert run.stats.execution.grid_cells == run.stats.cells_executed
        assert _answer_key(run) == _answer_key(plain)

    def test_config_validation(self):
        for mode in ("bogus", "tiled"):
            with pytest.raises(QueryModelError):
                AcquireConfig(explore_mode=mode)
        with pytest.raises(QueryModelError):
            AcquireConfig(materialize_cell_cap=0)

    def test_auto_is_the_default(self):
        assert AcquireConfig().explore_mode == "auto"


# ----------------------------------------------------------------------
# End to end through Acquire
# ----------------------------------------------------------------------
def _run(database, query, **overrides):
    layer = MemoryBackend(database)
    config = AcquireConfig(gamma=10.0, delta=0.05, **overrides)
    return Acquire(layer).run(query, config)


def _answer_key(result):
    return [
        (a.coords, a.qscore, a.aggregate_value, a.error)
        for a in result.answers
    ]


def _shell_bound(result, first=5.0):
    """Most shell passes a search may make: one, plus one per growth
    factor between the first bound (the grid step under unit L1
    weights) and the last QScore it examined."""
    ratio = max(result.stats.last_qscore / first, 1.0)
    return 1 + math.ceil(math.log(ratio, BALL_GROWTH))


class TestAcquireModes:
    @pytest.mark.parametrize("aggregate, target", [
        ("COUNT", 150.0), ("SUM", 400.0),
    ])
    def test_modes_agree_and_auto_is_no_worse(self, aggregate, target):
        # "No worse" is the shell contract: at most serial's round trips
        # plus one, no cell queries, and one pass per growth factor.
        database = _database(seed=33, n=200)
        query = _query(aggregate, target=target)
        runs = {
            mode: _run(database, query, explore_mode=mode)
            for mode in ("incremental", "materialized", "auto")
        }
        baseline = _answer_key(runs["incremental"])
        assert runs["incremental"].stats.explore_mode == "incremental"
        assert runs["materialized"].stats.explore_mode == "materialized"
        for mode in ("materialized", "auto"):
            assert _answer_key(runs[mode]) == baseline, mode
            assert runs[mode].satisfied == runs["incremental"].satisfied
        assert runs["materialized"].stats.execution.grid_materializations >= 1
        assert runs["incremental"].stats.execution.grid_materializations == 0
        auto = runs["auto"]
        serial = runs["incremental"].stats.execution.queries_executed
        assert auto.stats.explore_mode == "shells"
        assert auto.stats.execution.queries_executed <= serial + 1
        assert auto.stats.execution.cell_queries == 0
        assert 1 <= auto.stats.execution.grid_materializations
        assert auto.stats.execution.grid_materializations <= _shell_bound(auto)

    def test_auto_over_cap_goes_cell_by_cell(self):
        """The first ball's box (2 x 2 cells) is over a 2-cell cap, so
        no shell is read: every read goes cell by cell, with serial's
        round trips and counters."""
        database = _database(seed=34, n=150)
        query = _query("COUNT", target=120.0)
        capped = _run(
            database, query, explore_mode="auto", materialize_cell_cap=2
        )
        plain = _run(database, query, explore_mode="incremental")
        assert capped.stats.explore_mode == "incremental"
        assert capped.stats.plan_reason == "auto"
        assert _answer_key(capped) == _answer_key(plain)
        untimed = dict(execution_time_s=0.0)
        assert replace(capped.stats.execution, **untimed) == replace(
            plain.stats.execution, **untimed
        )
        assert capped.stats.execution.grid_materializations == 0
        assert capped.stats.cells_executed == plain.stats.cells_executed

    def test_forced_materialized_over_cap_raises_in_run(self):
        database = _database(seed=34, n=150)
        query = _query("COUNT", target=120.0)
        with pytest.raises(QueryModelError):
            _run(
                database,
                query,
                explore_mode="materialized",
                materialize_cell_cap=2,
            )

    def test_grid_budget_respected_by_materializing_paths(self):
        """Satellite: ``max_grid_queries`` must bound the *backend*
        work of the auto path too — a shell search reads no further
        than the ball of ``BALL_GROWTH`` times the last QScore it
        examined, never the whole grid for a small budget."""
        database = _database(seed=36, n=150)
        query = _query("COUNT", target=120.0)
        budget = 6
        run = _run(
            database,
            query,
            explore_mode="auto",
            max_grid_queries=budget,
        )
        assert run.stats.explore_mode == "shells"
        assert run.stats.grid_queries_examined <= budget
        space = RefinedSpace(query, 10.0, [70.0, 70.0])
        reach = BALL_GROWTH * run.stats.last_qscore * (1 + 1e-6)
        ball = space.box_qscores(space.origin, space.max_coords) <= reach
        execution = run.stats.execution
        assert execution.grid_cells <= int(np.count_nonzero(ball))
        assert execution.grid_cells < space.grid_size


# ----------------------------------------------------------------------
# execute_grid_tile == the corresponding execute_grid slice
# ----------------------------------------------------------------------
def _tile_layer(backend_name, database):
    if backend_name == "histogram":
        return HistogramBackend(database)
    if backend_name == "sampling":
        return SamplingBackend(database, fraction=0.5, seed=3)
    return _make_layer(backend_name, database)


class TestExecuteGridTile:
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize(
        "backend_name",
        ["memory", "memory-vectorized", "sqlite", "sampling", "fallback"],
    )
    def test_tile_is_grid_slice(self, backend_name, aggregate):
        database = _database(seed=51, n=200)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = _tile_layer(backend_name, database)
        prepared = layer.prepare(query, [100.0, 100.0])
        full = layer.execute_grid(prepared, space)
        lo = (1, 0)
        hi = (space.max_coords[0] - 1, space.max_coords[1])
        tile = layer.execute_grid_tile(prepared, space, lo, hi)
        expected = full[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1]
        assert tile.shape == expected.shape
        assert np.array_equal(tile, expected), backend_name

    @pytest.mark.parametrize("aggregate", HISTOGRAM_AGGREGATES)
    def test_histogram_tile_is_grid_slice(self, aggregate):
        database = _database(seed=52, n=200)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = HistogramBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        full = layer.execute_grid(prepared, space)
        lo, hi = (1, 1), (2, space.max_coords[1])
        tile = layer.execute_grid_tile(prepared, space, lo, hi)
        assert np.array_equal(tile, full[1:3, 1:hi[1] + 1])

    def test_single_cell_tile_matches_execute_cell(self):
        database = _database(seed=53, n=150)
        query = _query("SUM")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        tile = layer.execute_grid_tile(prepared, space, (2, 1), (2, 1))
        cell = layer.execute_cell(prepared, space, (2, 1))
        assert tuple(float(v) for v in tile[0, 0]) == cell

    def test_tile_counters(self):
        database = _database(seed=54, n=150)
        query = _query("COUNT")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        before = layer.stats.snapshot()
        layer.execute_grid_tile(prepared, space, (0, 0), (1, 1))
        delta = layer.stats.since(before)
        assert delta.queries_executed == 1
        assert delta.grid_materializations == 1
        assert delta.grid_cells == 4

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite", "fallback"])
    def test_full_box_tile_counts_as_grid_pass(self, backend_name):
        """A box as large as the grid (the materialized engine's one
        read) counts exactly like ``execute_grid``: one grid pass of
        every cell."""
        query = _query("COUNT")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = _make_layer(backend_name, _database(seed=54, n=150))
        prepared = layer.prepare(query, [100.0, 100.0])
        before = layer.stats.snapshot()
        layer.execute_grid_tile(prepared, space, space.origin, space.max_coords)
        middle = layer.stats.snapshot()
        layer.execute_grid(prepared, space)
        tile, grid = middle.since(before), layer.stats.since(middle)
        untimed = dict(execution_time_s=0.0)
        assert replace(tile, **untimed) == replace(grid, **untimed)
        assert tile.grid_materializations == 1
        assert tile.grid_cells == space.grid_size

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ((0,), (1, 1)),        # arity mismatch
            ((2, 2), (1, 3)),      # lo > hi
            ((0, 0), (0, 99)),     # beyond the grid extent
            ((-1, 0), (1, 1)),     # negative coordinate
        ],
    )
    def test_bad_bounds_raise(self, lo, hi):
        database = _database(seed=55, n=50)
        query = _query("COUNT")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        with pytest.raises(EngineError):
            layer.execute_grid_tile(prepared, space, lo, hi)


# ----------------------------------------------------------------------
# Aliasing: the prefix passes must never write their input tensors
# ----------------------------------------------------------------------
class TestAliasingRegression:
    def test_prefix_combine_leaves_input_unchanged(self):
        """Regression: the whole-grid prefix pass used to accumulate
        with ``out=tensor``, corrupting the caller's (possibly shared)
        cell tensor in place."""
        rng = np.random.default_rng(7)
        cells = np.floor(rng.uniform(0, 40, (3, 4, 1))) / 4.0
        pristine = cells.copy()
        blocks = prefix_combine(cells, get_aggregate("SUM"))
        assert blocks is not cells
        assert np.array_equal(cells, pristine)

    def test_block_state_leaves_cached_tensor_unchanged(self):
        """Regression: reading through ``block_state`` and the layer
        gather must not corrupt the cached (shared) block tensor — a
        second consumer must read the states one pass and the prefix
        passes give."""
        database = _database(seed=57, n=150)
        query = _query("SUM")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        aggregate = query.constraint.spec.aggregate
        cache = GridTensorCache()
        explorer = GridExplorer(
            layer, prepared, space, aggregate, whole=True, cache=cache
        )
        explorer.block_state(space.max_coords)
        list(explorer.compute_aggregates(list(make_traversal(space))))
        key = GridTensorCache.key_for(layer, query, space)
        cached = cache.get(key)
        assert cached is not None
        assert not cached.flags.writeable
        fresh = prefix_combine(layer.execute_grid(prepared, space), aggregate)
        assert np.array_equal(cached, fresh)


# ----------------------------------------------------------------------
# GridTensorCache unit behavior
# ----------------------------------------------------------------------
class TestGridTensorCache:
    def test_put_get_and_counters(self):
        cache = GridTensorCache(max_bytes=4096)
        tensor = np.arange(8, dtype=np.float64).reshape(4, 2)
        stored = cache.put("k", tensor)
        assert not stored.flags.writeable
        assert cache.get("missing") is None
        hit = cache.get("k")
        assert np.array_equal(hit, tensor)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_put_copies_writable_input(self):
        cache = GridTensorCache(max_bytes=4096)
        tensor = np.zeros((2, 2))
        stored = cache.put("k", tensor)
        tensor[0, 0] = 99.0
        assert stored[0, 0] == 0.0
        assert cache.get("k")[0, 0] == 0.0

    def test_lru_eviction_by_bytes(self):
        entry = np.zeros(16)  # 128 bytes each
        cache = GridTensorCache(max_bytes=300)
        cache.put("a", entry)
        cache.put("b", entry)
        assert cache.get("a") is not None  # "a" is now most recent
        cache.put("c", entry)  # 384 bytes > 300: evict LRU ("b")
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.current_bytes <= cache.max_bytes

    def test_oversized_entry_not_admitted(self):
        cache = GridTensorCache(max_bytes=100)
        stored = cache.put("big", np.zeros(64))  # 512 bytes
        assert not stored.flags.writeable  # still usable by the caller
        assert len(cache) == 0
        assert cache.get("big") is None

    def test_budget_validated(self):
        with pytest.raises(QueryModelError):
            GridTensorCache(max_bytes=0)

    def test_clear(self):
        cache = GridTensorCache(max_bytes=4096)
        cache.put("k", np.zeros(4))
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_layer_tokens_are_unique_and_stable(self):
        database = _database(seed=58, n=20)
        first = MemoryBackend(database)
        second = MemoryBackend(database)
        assert layer_cache_token(first) == layer_cache_token(first)
        assert layer_cache_token(first) != layer_cache_token(second)

    def test_keys_separate_layers(self):
        database = _database(seed=58, n=20)
        query = _query("COUNT")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        first = MemoryBackend(database)
        second = MemoryBackend(database)
        assert GridTensorCache.key_for(
            first, query, space
        ) != GridTensorCache.key_for(second, query, space)

    def test_fingerprint_ignores_constraint_target(self):
        """The whole point of the cache: sweep points over targets (or
        operators) share one entry."""
        base = query_fingerprint(_query("COUNT", target=100.0))
        assert base == query_fingerprint(_query("COUNT", target=250.0))
        assert base == query_fingerprint(
            _query("COUNT", target=50.0, op=ConstraintOp.GE)
        )

    def test_fingerprint_sees_predicates_and_aggregate(self):
        base = query_fingerprint(_query("COUNT"))
        assert base != query_fingerprint(_query("SUM"))
        assert base != query_fingerprint(_query("COUNT", bounds=(40.0, 30.0)))


# ----------------------------------------------------------------------
# Cache-hit replay is bit-for-bit
# ----------------------------------------------------------------------
class TestCacheReplay:
    @pytest.mark.parametrize("aggregate", ("COUNT", "SUM", "MIN"))
    def test_materialized_replay(self, aggregate):
        database = _database(seed=61, n=180)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        agg = query.constraint.spec.aggregate
        cache = GridTensorCache()
        first = GridExplorer(
            layer, prepared, space, agg, whole=True, cache=cache
        )
        reference = {
            coords: first.block_state(coords)
            for coords in _grid_coords(space)
        }
        assert layer.stats.cache_misses == 1
        before = layer.stats.snapshot()
        replay = GridExplorer(
            layer, prepared, space, agg, whole=True, cache=cache
        )
        for coords, expected in reference.items():
            assert replay.block_state(coords) == expected, coords
        delta = layer.stats.since(before)
        assert delta.cache_hits == 1
        assert delta.queries_executed == 0  # no backend pass at all
        assert replay.cells_executed == 0

    def test_acquire_sweep_reuses_tensors(self):
        """End to end: a second Acquire run over a different target on
        the same layer serves the grid from cache — same answers as an
        uncached run, strictly fewer backend queries."""
        database = _database(seed=63, n=200)
        layer = MemoryBackend(database)
        cache = GridTensorCache()
        config = lambda **kw: AcquireConfig(  # noqa: E731
            gamma=10.0, delta=0.05, explore_mode="materialized", **kw
        )
        Acquire(layer).run(_query("COUNT", target=150.0),
                           config(grid_cache=cache))
        before = layer.stats.snapshot()
        cached = Acquire(layer).run(_query("COUNT", target=180.0),
                                    config(grid_cache=cache))
        cached_delta = layer.stats.since(before)
        fresh_layer = MemoryBackend(database)
        uncached = Acquire(fresh_layer).run(_query("COUNT", target=180.0),
                                            config())
        assert _answer_key(cached) == _answer_key(uncached)
        assert cached_delta.cache_hits >= 1
        assert (
            cached_delta.queries_executed
            < fresh_layer.stats.queries_executed
        )


# ----------------------------------------------------------------------
# SearchStats.layers_explored counts repartitioned answers too
# ----------------------------------------------------------------------
class TestLayersExploredStats:
    def test_repartition_only_answers_counted(self):
        """Satellite regression: a search whose only answers come from
        repartitioning (grid ``coords`` is None) used to report
        ``layers_explored == 0``."""
        database = Database()
        database.create_table(
            "t",
            {
                # count(x <= 30) = 10, count(x <= 40) = 15: the grid
                # point at score 10 overshoots target 12 and the
                # bisection's first midpoint (bound 35) hits it exactly.
                "x": np.array(
                    [5.0] * 10 + [31.0, 32.0, 39.0, 39.0, 39.0]
                ),
                "y": np.zeros(15),
                "z": np.zeros(15),
                "v": np.zeros(15),
            },
        )
        query = _query(
            "COUNT", bounds=(30.0,), columns=("x",), target=12.0
        )
        result = _run(database, query, step=10.0)
        assert result.answers, "scenario must produce an answer"
        assert all(answer.coords is None for answer in result.answers)
        assert result.stats.repartition_probes >= 1
        assert result.stats.layers_explored == 1

    def test_mixed_answers_count_distinct_layers(self):
        database = _database(seed=65, n=200)
        result = _run(database, _query("COUNT", target=150.0))
        if result.answers:
            expected = len({round(a.qscore, 9) for a in result.answers})
            assert result.stats.layers_explored == expected
