"""Cross-backend differential suite for one-pass grid execution.

Three independent implementations of the same cell-query semantics —
numpy score filters (memory), generated SQL (sqlite), and marginal
histograms (histogram) — each answer a grid cell two ways: one query
per cell (``execute_cell``) and one pass over an inclusive box of cells
(``execute_grid`` over the whole grid, ``execute_grid_tile`` over a
proper sub-box; both run the backend's single ``_grid_pass``). The
base class's per-cell assembly — the path a third-party layer without
a one-pass implementation takes — is a fourth. This module drives all
of them over hypothesis-generated grids and asserts:

* grid pass == per-cell, *exactly*, per backend (bit-identical states,
  not approximately equal), on every kind of dimension a pass buckets
  (UPPER, LOWER and POINT selects, band joins, ontology dimensions)
  and on SQLite with NULL attributes and misread threshold literals;
* the exact backends (memory in every mode, sqlite) agree with each
  other within 1e-9;
* SQLite's box reader answers every probe inside its outer box as
  ``execute_box`` does, at the cost of one box query (bit for bit for
  COUNT, MIN and MAX; within 1e-9 for SUM and AVG); memory's is the
  base-class reader, one ``execute_box`` per probe;
* on a star join with fixed equi-joins, the one shape whose SQLite plan
  the join indexes decide, SQLite's grid passes, shell reads and box
  reader agree with memory with and without indexes (bit for bit for
  COUNT, MIN and MAX; within 1e-9 for SUM and AVG);
* the base-class ``execute_cells`` loop keeps each request's input
  order and counts exactly per request scope when threads share a
  layer;
* empty cells, empty tables, and float values all behave.

Aggregate values are drawn as multiples of 0.25 — exactly representable
in binary floating point — so sums are order-independent and the
bit-identical assertions cannot be defeated by legitimate
reassociation inside a backend.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.expand import make_traversal
from repro.core.interval import Interval
from repro.core.ontology import OntologyTree
from repro.core.predicate import (
    CategoricalPredicate,
    Direction,
    JoinPredicate,
    SelectPredicate,
)
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import EvaluationLayer
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.histogram_backend import HistogramBackend
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.exceptions import EngineError
from tests.conftest import q2_shaped

ALL_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")
#: The histogram layer estimates; only these are defined for it.
HISTOGRAM_AGGREGATES = ("COUNT", "SUM", "AVG")


def _columns(seed: int, n: int) -> dict[str, np.ndarray]:
    """Random predicate columns ``x``, ``y`` and aggregate column
    ``v``; values are exact binary fractions."""
    rng = np.random.default_rng(seed)
    return {
        "x": np.floor(rng.uniform(0, 400, n)) / 4.0,
        "y": np.floor(rng.uniform(0, 400, n)) / 4.0,
        "v": np.floor(rng.uniform(-200, 200, n)) / 4.0,
    }


def _database(seed: int, n: int) -> Database:
    """Table ``t`` of random ``_columns``."""
    database = Database()
    database.create_table("t", _columns(seed, n))
    return database


def _query(aggregate: str, bounds=(30.0, 30.0)) -> Query:
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


#: Refinable dimension kinds beside the UPPER select of ``_query``.
PREDICATE_KINDS = ("lower", "point", "band_join", "categorical")


def _cities() -> OntologyTree:
    ontology = OntologyTree(root="World")
    ontology.add_path("US", "East", "Boston")
    ontology.add_path("US", "East", "NewYork")
    ontology.add_path("US", "West", "Seattle")
    ontology.add_path("EU", "Paris")
    ontology.add_path("EU", "Berlin")
    return ontology


def _kinds_database(
    seed: int = 19, n: int = 90, nulls: bool = False, inexact: bool = False
) -> Database:
    """Table ``t`` of random ``_columns`` plus a city column, and a
    table ``u`` to band-join on; every number is an exact binary
    fraction. With ``nulls`` every third ``v`` is NaN (NULL in
    SQLite); with ``inexact`` ``v`` holds arbitrary floats, whose sums
    depend on the order they are added in."""
    rng = np.random.default_rng(seed + 1)
    cities = np.array(
        ["Boston", "NewYork", "Seattle", "Paris", "Berlin"], dtype=object
    )
    columns = _columns(seed, n)
    if inexact:
        columns["v"] = rng.uniform(-50.0, 50.0, n)
    if nulls:
        columns["v"][::3] = np.nan
    database = Database()
    database.create_table("t", {**columns, "city": rng.choice(cities, n)})
    database.create_table("u", {"w": np.floor(rng.uniform(0, 400, 9)) / 4.0})
    return database


def _kind_query(kind: str, aggregate: str) -> Query:
    """A two-dimension query: a ``kind`` dimension, then ``_query``'s
    UPPER select on ``t.y``."""
    tables = ("t",)
    if kind == "lower":
        first = SelectPredicate(
            name="k",
            expr=col("t.x"),
            interval=Interval(70.0, 100.0),
            direction=Direction.LOWER,
            denominator=100.0,
        )
    elif kind == "point":
        first = SelectPredicate(
            name="k",
            expr=col("t.x"),
            interval=Interval.point(50.0),
            direction=Direction.POINT,
            denominator=100.0,
        )
    elif kind == "band_join":
        tables = ("t", "u")
        first = JoinPredicate(
            name="k", left=col("t.x"), right=col("u.w"), tolerance=2.5
        )
    else:
        first = CategoricalPredicate(
            name="k",
            column=col("t.city"),
            accepted=frozenset({"Boston"}),
            ontology=_cities(),
        )
    base = _query(aggregate)
    return Query.build(
        "q", tables, [first, base.predicates[1]], base.constraint
    )


def _misparsed_threshold_case() -> tuple[Database, Query, RefinedSpace]:
    """Rows at and one ulp either side of ``-479377.9545921924``, the
    level-0 threshold of a one-dimension COUNT query; SQLite 3.40.1
    reads that literal one ulp low."""
    x0 = -479377.9545921924
    database = Database()
    database.create_table(
        "t",
        {"x": np.array([np.nextafter(x0, -np.inf), x0, np.nextafter(x0, np.inf)])},
    )
    query = Query.build(
        "q",
        ("t",),
        [
            SelectPredicate(
                name="p",
                expr=col("t.x"),
                interval=Interval(-1e6, x0),
                direction=Direction.UPPER,
                denominator=100.0,
            )
        ],
        AggregateConstraint(
            AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 2.0
        ),
    )
    return database, query, RefinedSpace(query, 1.0, [3.0])


def _grid_coords(space: RefinedSpace) -> list[tuple[int, ...]]:
    """Every in-bounds coordinate, in traversal order."""
    return list(make_traversal(space, "lp"))


def _box_coords(lo, hi) -> list[tuple[int, ...]]:
    """Every coordinate of the inclusive box ``[lo, hi]``."""
    return list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))


def _sub_box(space: RefinedSpace):
    """A proper sub-box of the grid: one level in from both ends of
    every axis long enough, so the tile starts above the origin (its
    pass must drop tuples admitted below it) and stops short of the
    grid extent."""
    lo = tuple(1 if m >= 2 else 0 for m in space.max_coords)
    hi = tuple(m - 1 if m >= 2 else m for m in space.max_coords)
    assert lo != space.origin
    return lo, hi


def _state(values) -> tuple[float, ...]:
    """An aggregate state (tuple or tensor entry) as plain floats."""
    return tuple(float(value) for value in values)


def _box_states(tensor: np.ndarray, lo, coords) -> dict:
    """States of ``coords`` read from the cell tensor of a box at
    ``lo``."""
    return {
        c: _state(tensor[tuple(x - l for x, l in zip(c, lo))]) for c in coords
    }


def _passes(layer, prepared, space) -> tuple[dict, dict]:
    """Cell states from one full-grid pass and from one pass over the
    proper sub-box, keyed by grid coordinates."""
    full = _box_coords(space.origin, space.max_coords)
    lo, hi = _sub_box(space)
    grid = layer.execute_grid(prepared, space)
    tile = layer.execute_grid_tile(prepared, space, lo, hi)
    assert grid.shape[:-1] == tuple(m + 1 for m in space.max_coords)
    assert tile.shape[:-1] == tuple(h - l + 1 for l, h in zip(lo, hi))
    return (
        _box_states(grid, space.origin, full),
        _box_states(tile, lo, _box_coords(lo, hi)),
    )


def _check_passes_match_cells(
    make, database, query, space, make_serial=None, caps=(100.0, 100.0)
) -> tuple[dict, dict]:
    """``execute_grid`` and a sub-box ``execute_grid_tile`` on one
    layer equal ``execute_cell`` on another, bit for bit, and count as
    two grid passes (one of them a tile). Returns the two passes'
    states."""
    passes = make(database)
    serial = (make_serial or make)(database)
    prepared_p = passes.prepare(query, list(caps))
    prepared_s = serial.prepare(query, list(caps))
    grid, tile = _passes(passes, prepared_p, space)
    expected = {
        c: _state(serial.execute_cell(prepared_s, space, c)) for c in grid
    }
    assert grid == expected
    assert tile == {c: expected[c] for c in tile}
    assert passes.stats.grid_materializations == 2
    assert passes.stats.grid_cells == len(grid) + len(tile)
    return grid, tile


class _CellOnlyLayer(EvaluationLayer):
    """Delegating layer that hides the inner backend's grid pass,
    forcing ``execute_grid`` / ``execute_grid_tile`` through the
    base-class per-cell assembly — the path third-party backends
    without a one-pass implementation take."""

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


# ----------------------------------------------------------------------
# One-pass grid execution == serial, per backend, bit-identical
# ----------------------------------------------------------------------
class TestBatchedMatchesSerial:
    """A grid pass answers a batch of cells at once; the batch equals
    per-cell execution bit for bit."""

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_exact_backends(self, backend_name, aggregate):
        make = MemoryBackend if backend_name == "memory" else SQLiteBackend
        query = _query(aggregate)
        _check_passes_match_cells(
            make,
            _database(seed=11, n=180),
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    @pytest.mark.parametrize("kind", PREDICATE_KINDS)
    def test_predicate_kinds(self, kind, backend_name, aggregate):
        """Each kind of dimension a pass buckets on beside UPPER: a
        LOWER or POINT select, a refinable band join and an ontology
        dimension. Keys fall on level thresholds exactly, so boundary
        ties must land where the per-cell annulus puts them."""
        make = MemoryBackend if backend_name == "memory" else SQLiteBackend
        query = _kind_query(kind, aggregate)
        _check_passes_match_cells(
            make,
            _kinds_database(),
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )

    @pytest.mark.parametrize("aggregate", HISTOGRAM_AGGREGATES)
    def test_histogram_backend(self, aggregate):
        query = _query(aggregate)
        _check_passes_match_cells(
            HistogramBackend,
            _database(seed=12, n=180),
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize("mode", ["indexed"])
    def test_memory_accelerator_modes(self, mode, aggregate):
        query = _query(aggregate)
        _check_passes_match_cells(
            lambda database: MemoryBackend(database, **{mode: True}),
            _database(seed=13, n=180),
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_base_class_fallback(self, aggregate):
        """The base-class pass assembles its box from one cell query
        per cell: the same states, each cell counted as a round trip
        and the pass itself as none."""
        database = _database(seed=14, n=150)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        wrapped = _CellOnlyLayer(MemoryBackend(database))
        prepared = wrapped.prepare(query, [100.0, 100.0])
        grid, tile = _passes(wrapped, prepared, space)
        serial = MemoryBackend(database)
        prepared_s = serial.prepare(query, [100.0, 100.0])
        assert grid == {
            c: _state(serial.execute_cell(prepared_s, space, c)) for c in grid
        }
        assert tile == {c: grid[c] for c in tile}
        cells = len(grid) + len(tile)
        assert wrapped.stats.cell_queries == cells
        assert wrapped.stats.queries_executed == cells
        assert wrapped.stats.grid_materializations == 2

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_thread_pool_fallback(self, aggregate, workers):
        """Requests sharing one layer from a pool of ``workers`` threads
        (the service's shape) each get the base-class ``execute_cells``
        loop's states in their own input order, and each request scope
        counts exactly its own cells."""
        database = _database(seed=14, n=150)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial = MemoryBackend(database)
        prepared_s = serial.prepare(query, [100.0, 100.0])
        coords = _grid_coords(space)
        expected = {c: serial.execute_cell(prepared_s, space, c) for c in coords}
        shared = MemoryBackend(database)
        prepared = shared.prepare(query, [100.0, 100.0])
        shared.reset_stats()
        requests = 8
        # Every request takes its own slice of the grid; odd ones ask
        # for it backwards, so input order differs from traversal order.
        slices = [
            coords[i::requests][:: -1 if i % 2 else 1] for i in range(requests)
        ]

        def request(batch):
            with shared.request_scope() as scope:
                states = shared.execute_cells(prepared, space, batch)
            return states, scope

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(request, slices))
        for batch, (states, scope) in zip(slices, results):
            assert states == [expected[c] for c in batch]
            assert scope.cell_queries == len(batch)
            assert scope.queries_executed == len(batch)
        assert shared.stats.cell_queries == len(coords)
        assert shared.stats.queries_executed == len(coords)


# ----------------------------------------------------------------------
# Cross-backend agreement of the grid passes
# ----------------------------------------------------------------------
def _assert_close(memory: dict, sqlite: dict) -> None:
    assert memory.keys() == sqlite.keys()
    for c in memory:
        assert memory[c] == pytest.approx(sqlite[c], rel=1e-9, abs=1e-9), c


#: Aggregates whose SQLite states from fetched rows (grid passes, shell
#: reads, box readers) equal per-query SQL's bit for bit; SQLite sums
#: SUM and AVG in SQL, the fetched rows in numpy, each in its own order.
EXACT_ON_SQLITE = ("COUNT", "MIN", "MAX")


def _bits(state) -> tuple[str, ...]:
    """An aggregate state bit for bit (NaN equal to NaN, -0.0 not
    equal to 0.0)."""
    return tuple(float(value).hex() for value in state)


def _assert_agree(aggregate: str, got, expected) -> None:
    """Two lists of states: bit for bit for COUNT, MIN and MAX, within
    1e-9 relative for SUM and AVG."""
    if aggregate in EXACT_ON_SQLITE:
        assert [_bits(state) for state in got] == [
            _bits(state) for state in expected
        ]
    else:
        assert [_state(state) for state in got] == [
            pytest.approx(_state(state), rel=1e-9) for state in expected
        ]


def _shell_states(layer, prepared, space, shell) -> dict:
    """Cell states of one shell read over the whole grid, keyed by grid
    coordinates (the identity outside the shell)."""
    tensor = layer.execute_grid_tile(
        prepared, space, space.origin, space.max_coords, shell=shell
    )
    return _box_states(
        tensor, space.origin, _box_coords(space.origin, space.max_coords)
    )


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_memory_and_sqlite_batches_agree(self, aggregate):
        database = _database(seed=15, n=200)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        memory = MemoryBackend(database)
        sqlite = SQLiteBackend(database)
        grid_m, tile_m = _passes(
            memory, memory.prepare(query, [100.0, 100.0]), space
        )
        grid_q, tile_q = _passes(
            sqlite, sqlite.prepare(query, [100.0, 100.0]), space
        )
        _assert_close(grid_m, grid_q)
        _assert_close(tile_m, tile_q)

    @pytest.mark.parametrize(
        "create_indexes", [True, False], ids=["indexed", "unindexed"]
    )
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_equi_join(self, aggregate, create_indexes):
        """The star join of Fig 8's Q2: SQLite's grid passes and shell
        reads agree with memory's whichever plan the join indexes lead
        SQLite to."""
        database, query = q2_shaped(aggregate)
        space = RefinedSpace(query, 20.0, [70.0] * 3)
        memory = MemoryBackend(database)
        sqlite = SQLiteBackend(database, create_indexes=create_indexes)

        def reads(layer):
            prepared = layer.prepare(query, [100.0] * 3)
            return [
                *_passes(layer, prepared, space),
                *(
                    _shell_states(layer, prepared, space, shell)
                    for shell in _shells(space)
                ),
            ]

        for states_m, states_q in zip(reads(memory), reads(sqlite)):
            assert states_m.keys() == states_q.keys()
            _assert_agree(
                aggregate, list(states_q.values()), list(states_m.values())
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=0, max_value=120),
        aggregate=st.sampled_from(ALL_AGGREGATES),
        bound_x=st.floats(min_value=5.0, max_value=60.0),
        bound_y=st.floats(min_value=5.0, max_value=60.0),
        gamma=st.floats(min_value=10.0, max_value=40.0),
    )
    def test_random_grids(self, seed, n, aggregate, bound_x, bound_y, gamma):
        """Property: over random data, grids and aggregates, the grid
        passes of both exact backends and the serial path all produce
        the same states — including empty cells (sparse data) and
        empty tables (n == 0)."""
        database = _database(seed=seed, n=n)
        query = _query(aggregate, (bound_x, bound_y))
        memory = MemoryBackend(database)
        sqlite = SQLiteBackend(database)
        prepared_m = memory.prepare(query, [150.0, 150.0])
        prepared_q = sqlite.prepare(query, [150.0, 150.0])
        space = RefinedSpace(query, gamma, [80.0, 80.0])
        grid_m, tile_m = _passes(memory, prepared_m, space)
        grid_q, tile_q = _passes(sqlite, prepared_q, space)
        for c in _grid_coords(space)[:40]:
            assert grid_m[c] == _state(
                memory.execute_cell(prepared_m, space, c)
            ), c
        assert tile_m == {c: grid_m[c] for c in tile_m}
        _assert_close(grid_m, grid_q)
        _assert_close(tile_m, tile_q)


# ----------------------------------------------------------------------
# Shell reads: a grid pass restricted to one QScore shell
# ----------------------------------------------------------------------
SHELL_BACKENDS = {
    "memory": MemoryBackend,
    "sqlite": SQLiteBackend,
    "fallback": lambda database: _CellOnlyLayer(MemoryBackend(database)),
}


def _shells(space: RefinedSpace, count: int = 4) -> list[tuple[float, float]]:
    """Consecutive shells covering the grid. The inner bounds are cell
    QScores, so cells on a bound test both of its sides."""
    qscores = np.unique(space.box_qscores(space.origin, space.max_coords))
    picks = np.linspace(0, len(qscores) - 1, count + 1).astype(int)[1:-1]
    bounds = [-math.inf, *qscores[picks].tolist(), float(qscores[-1])]
    return list(zip(bounds, bounds[1:]))


def _check_shells_match_grid(
    layer, database, query, space, caps=(100.0, 100.0)
) -> None:
    """Over the whole grid and a proper sub-box, every shell read of
    ``layer`` equals its whole-grid pass on the shell's cells and
    holds the identity elsewhere, bit for bit, and counts as one grid
    pass of the shell's cells, no tile; the base-class fallback makes
    one ``execute_cell`` per shell cell."""
    prepared = layer.prepare(query, list(caps))
    whole = layer.execute_grid(prepared, space)
    identity = _state(query.constraint.spec.aggregate.identity())
    qscores = space.box_qscores(space.origin, space.max_coords)
    fallback = isinstance(layer, _CellOnlyLayer)
    for lo, hi in ((space.origin, space.max_coords), _sub_box(space)):
        box = tuple(slice(low, high + 1) for low, high in zip(lo, hi))
        for lower, upper in _shells(space):
            inside = (qscores[box] > lower) & (qscores[box] <= upper)
            before = layer.stats.snapshot()
            tensor = layer.execute_grid_tile(
                prepared, space, lo, hi, shell=(lower, upper)
            )
            delta = layer.stats.since(before)
            assert tensor.shape == whole[box].shape
            for index in np.ndindex(inside.shape):
                expected = (
                    _state(whole[box][index]) if inside[index] else identity
                )
                assert _state(tensor[index]) == expected, (lower, index)
            cells = int(np.count_nonzero(inside))
            assert delta.grid_materializations == 1
            assert delta.grid_cells == cells
            assert delta.cell_queries == (cells if fallback else 0)
            assert delta.queries_executed == (cells if fallback else 1)


def _weighted_query(aggregate: str) -> Query:
    base = _query(aggregate)
    predicates = [
        predicate.with_weight(weight)
        for predicate, weight in zip(base.predicates, (1.0, 2.5))
    ]
    return Query.build("q", ("t",), predicates, base.constraint)


class TestShellReads:
    """``execute_grid_tile(..., shell=(lower, upper))`` computes exactly
    the cells whose QScore lies in ``(lower, upper]``."""

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    @pytest.mark.parametrize("backend_name", sorted(SHELL_BACKENDS))
    @pytest.mark.parametrize(
        "kind", ("upper", "weighted_l1") + PREDICATE_KINDS
    )
    def test_shell_equals_whole_grid(self, kind, backend_name, aggregate):
        if kind == "upper":
            database, query = _database(seed=11, n=180), _query(aggregate)
        elif kind == "weighted_l1":
            database = _database(seed=12, n=180)
            query = _weighted_query(aggregate)
        else:
            database = _kinds_database()
            query = _kind_query(kind, aggregate)
        _check_shells_match_grid(
            SHELL_BACKENDS[backend_name](database),
            database,
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )

    @pytest.mark.parametrize("norm", ["L2", "Linf"])
    @pytest.mark.parametrize("backend_name", sorted(SHELL_BACKENDS))
    def test_other_norms(self, backend_name, norm):
        """Without the L1 need-sum bound, SQLite fetches the box and
        numpy alone drops the rows outside the shell."""
        from repro.core.scoring import LInfNorm, LpNorm

        database = _database(seed=13, n=180)
        query = _weighted_query("SUM")
        norm = LpNorm(2) if norm == "L2" else LInfNorm()
        _check_shells_match_grid(
            SHELL_BACKENDS[backend_name](database),
            database,
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0], norm),
        )

    def test_sqlite_misparsed_threshold(self):
        """The data of ``TestBatchContract::test_sqlite_misparsed_threshold``:
        a key equal to a threshold SQLite misreads by one ulp."""
        database, query, space = _misparsed_threshold_case()
        _check_shells_match_grid(
            SQLiteBackend(database), database, query, space, caps=(10.0,)
        )

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_sqlite_null_attributes(self, aggregate):
        columns = _columns(seed=20, n=150)
        columns["v"][::2] = np.nan
        database = Database()
        database.create_table("t", columns)
        query = _query(aggregate)
        _check_shells_match_grid(
            SQLiteBackend(database),
            database,
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )


# ----------------------------------------------------------------------
# Box readers == execute_box
# ----------------------------------------------------------------------
def _check_reader(
    database, query, outer, probes, caps=(100.0, 100.0), create_indexes=True
):
    """A SQLite reader over ``outer`` answers every probe as
    ``execute_box`` does, at the cost of one box query: bit for bit for
    COUNT, MIN and MAX, within 1e-9 relative for SUM and AVG. Returns
    the states."""
    layer = SQLiteBackend(database, create_indexes=create_indexes)
    prepared = layer.prepare(query, list(caps))
    before = layer.stats.snapshot()
    read = layer.box_reader(prepared, outer)
    states = [read(probe) for probe in probes]
    delta = layer.stats.since(before)
    assert (delta.queries_executed, delta.box_queries) == (1, 1)
    expected = [layer.execute_box(prepared, probe) for probe in probes]
    _assert_agree(query.constraint.spec.aggregate.name, states, expected)
    return states


@st.composite
def _reader_cases(draw):
    """A dimension kind beside an UPPER select, an aggregate, data with
    or without NULL attributes and exact sums, an outer box whose
    scores may be negative (contraction) and probes inside it."""
    kind = draw(st.sampled_from(("upper",) + PREDICATE_KINDS))
    aggregate = draw(st.sampled_from(ALL_AGGREGATES))
    seed = draw(st.integers(0, 2**16))
    data = {"nulls": draw(st.booleans()), "inexact": draw(st.booleans())}
    outer = (draw(st.floats(-60.0, 100.0)), draw(st.floats(-60.0, 100.0)))
    shrinks = draw(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    probes = [
        tuple(bound - shrink * 80.0 for bound, shrink in zip(outer, pair))
        for pair in shrinks
    ]
    return kind, aggregate, seed, data, outer, probes


class TestBoxReader:
    """SQLite's ``box_reader`` against its ``execute_box``. The corpus
    gate never repartitions, so this is the path's check."""

    @settings(max_examples=60, deadline=None)
    @given(case=_reader_cases())
    def test_random_probes(self, case):
        kind, aggregate, seed, data, outer, probes = case
        database = _kinds_database(seed=seed, **data)
        query = (
            _query(aggregate) if kind == "upper"
            else _kind_query(kind, aggregate)
        )
        _check_reader(database, query, outer, probes)

    @pytest.mark.parametrize(
        "create_indexes", [True, False], ids=["indexed", "unindexed"]
    )
    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_equi_join(self, aggregate, create_indexes):
        """Probes of a box of the star join of Fig 8's Q2: the reader
        answers each as SQLite's and memory's ``execute_box`` do."""
        database, query = q2_shaped(aggregate)
        probes = [
            (40.0, 40.0, 40.0), (10.0, 30.0, 20.0), (0.0, 0.0, 0.0),
            (-10.0, 25.0, 5.0),
        ]
        states = _check_reader(
            database, query, (40.0, 40.0, 40.0), probes, caps=(100.0,) * 3,
            create_indexes=create_indexes,
        )
        memory = MemoryBackend(database)
        prepared = memory.prepare(query, [100.0] * 3)
        _assert_agree(
            aggregate, states, [memory.execute_box(prepared, p) for p in probes]
        )

    @pytest.mark.parametrize("aggregate", ["SUM", "AVG"])
    def test_order_dependent_sums(self, aggregate):
        """Probes admitting dozens of arbitrary floats, whose sums change
        with the order they are added in."""
        database = _kinds_database(seed=25, n=200, inexact=True)
        _check_reader(
            database, _query(aggregate), (70.0, 70.0),
            [(70.0, 70.0), (50.0, 60.0), (20.0, 65.0)],
        )

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_empty_probe(self, aggregate):
        """A probe that admits no row of a non-empty outer box gets the
        identity state."""
        columns = _columns(seed=21, n=120)
        columns["x"] += 1.0
        database = Database()
        database.create_table("t", columns)
        query = _query(aggregate)
        identity = query.constraint.spec.aggregate.identity()
        states = _check_reader(
            database, query, (40.0, 40.0), [(-30.0, -30.0), (0.0, 0.0)]
        )
        assert _bits(states[0]) == _bits(identity)
        assert _bits(states[1]) != _bits(identity)

    def test_misparsed_threshold(self):
        """The data of ``TestBatchContract::test_sqlite_misparsed_threshold``:
        the probe at score 0 compares keys with a threshold SQLite
        reads one ulp low, and the reader compares with what SQLite
        reads."""
        database, query, _ = _misparsed_threshold_case()
        _check_reader(
            database, query, (1.0,),
            [(0.0,), (0.5,), (-0.25,), (1.0,)], caps=(10.0,),
        )

    def test_unbounded_dimension_admits_null_keys(self):
        """A dimension with no finite bound renders ``1=1``, which
        admits rows whose key is NULL; the reader admits them too."""
        columns = _columns(seed=24, n=90)
        columns["x"][::4] = np.nan
        database = Database()
        database.create_table("t", columns)
        base = _query("COUNT")
        unbounded = SelectPredicate(
            name="open",
            expr=col("t.x"),
            interval=Interval(-math.inf, math.inf),
            direction=Direction.UPPER,
        )
        query = Query.build(
            "q", ("t",), [unbounded, base.predicates[1]], base.constraint
        )
        states = _check_reader(
            database, query, (10.0, 10.0),
            [(0.0, 0.0), (5.0, -10.0)],
        )
        with_null_keys = int(np.count_nonzero(columns["y"] <= 30.0))
        assert states[0] == (float(with_null_keys),)

    def test_bad_boxes_are_refused(self):
        """The reader holds no row outside its box, so it refuses a
        probe there rather than answer it short; a probe or an outer box
        of the wrong arity is refused as ``execute_box`` refuses it."""
        database = _database(seed=22, n=150)
        layer = SQLiteBackend(database)
        prepared = layer.prepare(_query("SUM"), [100.0, 100.0])
        read = layer.box_reader(prepared, (10.0, 10.0))
        with pytest.raises(EngineError, match="outside the box"):
            read((20.0, 5.0))
        for probe in ((5.0,), (5.0, 5.0, 5.0)):
            with pytest.raises(EngineError, match="arity"):
                read(probe)
        with pytest.raises(EngineError, match="arity"):
            layer.box_reader(prepared, (10.0,))

    @pytest.mark.parametrize(
        "wrap", [lambda layer: layer, _CellOnlyLayer], ids=["memory", "cells"]
    )
    def test_base_class_reader_runs_one_box_per_probe(self, wrap):
        """Memory and the layers without a reader of their own answer
        each probe with one ``execute_box``."""
        database = _database(seed=23, n=80)
        query = _query("COUNT")
        layer = wrap(MemoryBackend(database))
        prepared = layer.prepare(query, [100.0, 100.0])
        read = layer.box_reader(prepared, (30.0, 30.0))
        assert layer.stats.box_queries == 0
        probes = [(0.0, 0.0), (15.0, 30.0), (-10.0, 5.0)]
        states = [read(probe) for probe in probes]
        assert layer.stats.box_queries == len(probes)
        assert states == [layer.execute_box(prepared, p) for p in probes]


# ----------------------------------------------------------------------
# Contract edges
# ----------------------------------------------------------------------
class TestBatchContract:
    """Edges of the multi-cell paths: the per-cell loop a grid pass
    falls back on, boundary-adjacent scores and empty cells."""

    def test_empty_batch(self):
        """The base-class per-cell loop issues nothing for no cells."""
        database = _database(seed=16, n=50)
        query = _query("COUNT")
        for layer in (
            MemoryBackend(database),
            SQLiteBackend(database),
            HistogramBackend(database),
        ):
            prepared = layer.prepare(query, [100.0, 100.0])
            space = RefinedSpace(query, 20.0, [70.0, 70.0])
            before = layer.stats.snapshot()
            assert layer.execute_cells(prepared, space, []) == []
            delta = layer.stats.since(before)
            assert delta.queries_executed == 0
            assert delta.cell_queries == 0

    def test_result_order_matches_input_order(self):
        database = _database(seed=17, n=150)
        query = _query("SUM")
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [100.0, 100.0])
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        coords = _grid_coords(space)
        reversed_coords = list(reversed(coords))
        forward = layer.execute_cells(prepared, space, coords)
        backward = layer.execute_cells(prepared, space, reversed_coords)
        assert backward == list(reversed(forward))

    def test_unrepresentable_step_boundary(self):
        """Regression (found by ``test_random_grids``): a gamma whose
        grid step is not an exact binary fraction used to land
        boundary-adjacent scores one cell off in the digitized grid —
        the float *quotient* ``s / step`` disagreed with the serial
        float-*product* predicate ``(c-1)*step < s <= c*step``."""
        database = _database(seed=0, n=17)
        query = _query("COUNT", (5.0, 5.0))
        space = RefinedSpace(query, 16.999999999999993, [80.0, 80.0])
        grid_m, tile_m = _check_passes_match_cells(
            MemoryBackend, database, query, space, caps=(150.0, 150.0)
        )
        grid_q, tile_q = _check_passes_match_cells(
            SQLiteBackend, database, query, space, caps=(150.0, 150.0)
        )
        _assert_close(grid_m, grid_q)
        _assert_close(tile_m, tile_q)

    def test_sqlite_misparsed_threshold(self):
        """Regression: SQLite 3.40.1 reads the literal
        ``-479377.9545921924`` as ``-479377.95459219243``, one ulp below
        the double whose ``repr`` it is, so a stored value equal to
        that double fails ``x <= -479377.9545921924``. Level 0's
        threshold here is that double: the pass must bucket against
        the threshold as SQLite reads it, as the per-cell query
        compares (cells 0 and 1 hold 1 and 2 rows on such a SQLite)."""
        database, query, space = _misparsed_threshold_case()
        _check_passes_match_cells(
            SQLiteBackend, database, query, space, caps=(10.0,)
        )

    @pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
    def test_sqlite_null_attributes(self, aggregate):
        """A NaN in the catalog is stored as NULL in SQLite, and SQL
        aggregates skip NULLs: the pass drops them before lifting, as
        the per-cell SUM, MIN, MAX and AVG do. Every other value is
        NULL, so some cells hold only NULLs."""
        columns = _columns(seed=20, n=150)
        columns["v"][::2] = np.nan
        database = Database()
        database.create_table("t", columns)
        query = _query(aggregate)
        _check_passes_match_cells(
            SQLiteBackend,
            database,
            query,
            RefinedSpace(query, 20.0, [70.0, 70.0]),
        )

    def test_empty_cells_get_identity_state(self):
        """Coordinates past the data's reach hold the identity state,
        exactly as a serial query over an empty region would."""
        database = _database(seed=18, n=40)
        for aggregate in ALL_AGGREGATES:
            query = _query(aggregate, (1.0, 1.0))
            identity = _state(query.constraint.spec.aggregate.identity())
            space = RefinedSpace(query, 20.0, [390.0, 390.0])
            far = tuple(space.max_coords)
            for layer in (MemoryBackend(database), SQLiteBackend(database)):
                prepared = layer.prepare(query, [400.0, 400.0])
                grid = layer.execute_grid(prepared, space)
                tile = layer.execute_grid_tile(prepared, space, far, far)
                assert tile.shape[:-1] == (1, 1)
                assert _state(grid[far]) == identity
                assert _state(tile[0, 0]) == identity
                assert _state(
                    layer.execute_cell(prepared, space, far)
                ) == identity
