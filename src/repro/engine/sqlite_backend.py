"""SQLite evaluation layer.

The closest stand-in for the paper's deployment: ACQUIRE "sits outside
the DBMS ... all query execution tasks are delegated to the DBMS".
Every cell/box/top-k request is compiled to SQL and executed against an
in-memory :mod:`sqlite3` database loaded from the catalog, so each cell
query is a genuine database query with real planning, filtering and
aggregation cost. A grid pass is one plain ``SELECT`` of the rows in
its box: SQLite filters and joins them, and numpy buckets them into
cells and aggregates each cell (:meth:`SQLiteBackend._grid_pass`); a
shell read adds a bound on the rows' weighted need sum to the same
``SELECT``. A box reader fetches the rows of its box the same way, once,
and answers each repartition probe from them in numpy
(:meth:`SQLiteBackend.box_reader`).
Bucketing inside SQLite, with a ``CASE`` ladder per dimension under a
``GROUP BY``, cost 2.5-4x a plain fetch of the same rows on a 2-core
x86 host.

Every read of a join walks it through indexes that ``prepare`` builds:
each join column leads an index that covers the columns the query reads
of its table, so SQLite finds a joined row's keys and attribute in the
index entry it looks the row up by and never reads the table row; each
numeric select column keeps a single-column index, for range scans and
domain bounds. On a Fig 8 dataset (20K-row ``partsupp``, 3-way join,
COUNT, d = 3) the covering join indexes halved the time SQLite spends
stepping the join and take 1,384 KB of index pages where single-column
join indexes took 876 KB.
"""

from __future__ import annotations

import math
import sqlite3
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.aggregates import AggState
from repro.core.interval import Interval
from repro.core.predicate import (
    CategoricalPredicate,
    Direction,
    JoinPredicate,
    Predicate,
    SelectPredicate,
)
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.core.scoring import LpNorm
from repro.engine.backends import (
    EvaluationLayer,
    Shell,
    TopKAdmission,
    check_box_arity,
    grouped_cell_tensor,
    shell_mask,
)
from repro.engine.catalog import Database
from repro.engine.expression import ColumnRef, Expression
from repro.engine.schema import ColumnType
from repro.exceptions import EngineError

@dataclass
class _SQLitePrepared:
    query: Query
    dim_caps: list[float]
    from_sql: str
    fixed_sql: list[str]


class SQLiteBackend(EvaluationLayer):
    """Evaluation layer that compiles every request to SQL."""

    def __init__(
        self, database: Database, create_indexes: bool = True
    ) -> None:
        super().__init__()
        self.database = database
        self.create_indexes = create_indexes
        self._connection = sqlite3.connect(
            ":memory:", check_same_thread=False
        )
        self._owner_ident = threading.get_ident()
        # Worker threads (service workers) read through private
        # deserialized snapshots of the primary database — shared-cache
        # connections would serialize on the cache mutex, losing the
        # overlap the sqlite3 C library offers by releasing the GIL. A
        # generation counter invalidates snapshots when later loads or
        # index builds change the primary; each worker thread holds one
        # full copy, so memory scales with threads, not requests.
        self._local = threading.local()
        self._readers: list[sqlite3.Connection] = []
        self._readers_lock = threading.Lock()
        self._load_generation = 0
        self._snapshot_generation = -1
        self._snapshot_data: Optional[bytes] = None
        self._snapshot_lock = threading.Lock()
        # Loads and index builds are DDL against the shared primary
        # connection: not idempotent, so concurrent cold ``prepare``
        # calls (the service tier shares one backend across requests)
        # must serialize on this lock.
        self._load_lock = threading.Lock()
        self._loaded: set[str] = set()
        # Column tuples of the indexes built, per table.
        self._indexes: dict[str, list[tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._readers_lock:
            readers, self._readers = self._readers, []
        for connection in readers:
            try:
                connection.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()
        self._connection.close()
        super().close()

    def _snapshot(self) -> tuple[int, bytes]:
        """Serialized image of the primary database, memoized per load
        generation. All loads/index builds happen on the primary
        connection before any worker reads (``prepare`` installs every
        table the prepared query touches), so a snapshot taken at fetch
        time is complete for that query."""
        with self._snapshot_lock:
            if self._snapshot_generation != self._load_generation:
                self._snapshot_data = self._connection.serialize()
                self._snapshot_generation = self._load_generation
            assert self._snapshot_data is not None
            return self._snapshot_generation, self._snapshot_data

    def _cursor(self) -> sqlite3.Cursor:
        """A read cursor safe for the calling thread.

        The owning thread reads through the primary connection; worker
        threads get a lazily created per-thread private connection
        deserialized from the primary's current image. Private copies
        (rather than shared-cache readers) keep concurrent reads off
        any shared page-cache mutex, so they genuinely overlap.
        """
        if threading.get_ident() == self._owner_ident:
            return self._connection.cursor()
        if not hasattr(self._connection, "serialize"):
            # Python < 3.11 has no Connection.serialize; fall back to
            # the shared primary connection (the sqlite3 module
            # serializes access internally) — correct, just without
            # genuine fetch overlap.
            return self._connection.cursor()
        generation = getattr(self._local, "generation", -1)
        connection = getattr(self._local, "connection", None)
        with self._load_lock:
            current_generation = self._load_generation
        if connection is None or generation != current_generation:
            image_generation, image = self._snapshot()
            if connection is None:
                connection = sqlite3.connect(
                    ":memory:", check_same_thread=False
                )
                with self._readers_lock:
                    self._readers.append(connection)
                self._local.connection = connection
            connection.deserialize(image)
            self._local.generation = image_generation
        return connection.cursor()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_loaded(self, table_name: str) -> None:
        with self._load_lock:
            if table_name in self._loaded:
                return
            table = self.database.table(table_name)
            columns_sql = ", ".join(
                f"{column.name} {column.ctype.sql_type}"
                for column in table.schema.columns
            )
            cursor = self._connection.cursor()
            cursor.execute(f"CREATE TABLE {table_name} ({columns_sql})")
            names = table.schema.column_names
            placeholders = ", ".join("?" for _ in names)
            column_lists = [table.column(name).tolist() for name in names]
            cursor.executemany(
                f"INSERT INTO {table_name} VALUES ({placeholders})",
                zip(*column_lists) if column_lists else [],
            )
            self._connection.commit()
            self._loaded.add(table_name)
            self._load_generation += 1
            self._count_rows(len(table))

    def _ensure_index(self, table_name: str, columns: tuple[str, ...]) -> None:
        """Index ``table_name`` on ``columns``, unless an index there
        already leads with them.

        An index whose columns lead the new one serves no seek the new
        one cannot, so it is dropped, and every worker snapshot (a copy
        of the primary, pages included) drops it at its next refresh.
        """
        with self._load_lock:
            if not self.create_indexes:
                return
            built = self._indexes.setdefault(table_name, [])
            if any(_covers(existing, columns) for existing in built):
                return
            # Dropped first, so the new index reuses the freed pages.
            for existing in [e for e in built if _covers(columns, e)]:
                self._connection.execute(
                    f'DROP INDEX "{_index_name(table_name, existing)}"'
                )
                built.remove(existing)
            self._connection.execute(
                f'CREATE INDEX "{_index_name(table_name, columns)}" '
                f"ON {table_name} ({', '.join(columns)})"
            )
            built.append(columns)
            self._load_generation += 1

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def prepare(
        self, query: Query, dim_caps: Optional[Sequence[float]] = None
    ) -> _SQLitePrepared:
        """Load the query's tables into SQLite and index them
        (:func:`_index_plan`), unless ``create_indexes`` is off.

        A join column gets an index that leads with it and covers every
        other column the query reads of its table: its select and
        categorical keys, its other join columns and the aggregates'
        attributes. A join looks each row up by that index and reads
        the row's keys from the entry, so no read visits a joined
        table's rows; the select keys come second so that the lookup
        also checks their bounds. Each numeric select column gets a
        single-column index, which drives range scans and gives
        :meth:`_expr_domain` its ends. That is as many indexes as one
        per predicate column, but wider: on a Fig 8 dataset (20K-row
        ``partsupp``) 1,384 KB of index pages instead of 876 KB, and
        each service worker's snapshot holds a copy. No index is built
        whose columns lead an existing one, so a later query on the same
        columns builds none; a query that reads another column of a
        joined table after the same keys builds a wider one and drops
        the one it extends. A query with other select keys on that table
        builds its own, since the old one's lookups seek on their keys.
        """
        if dim_caps is None:
            dim_caps = [0.0] * query.dimensionality
        with self._timed():
            for table_name in query.tables:
                self._ensure_loaded(table_name)
            for table_name, columns in _index_plan(self.database, query):
                self._ensure_index(table_name, columns)
        fixed_sql = [
            predicate.sql_condition(0.0) for predicate in query.fixed_predicates
        ]
        return _SQLitePrepared(
            query=query,
            dim_caps=[float(cap) for cap in dim_caps],
            from_sql=", ".join(query.tables),
            fixed_sql=fixed_sql,
        )

    def useful_max_scores(self, prepared: _SQLitePrepared) -> list[float]:
        """Bound each dimension from per-table MIN/MAX statistics."""
        scores = []
        for predicate in prepared.query.refinable_predicates:
            if isinstance(predicate, SelectPredicate):
                tables = predicate.expr.tables()
                if len(tables) == 1:
                    domain = self._expr_domain(
                        predicate.expr, next(iter(tables))
                    )
                    scores.append(predicate.max_useful_score(domain))
                else:
                    scores.append(math.inf)
            elif isinstance(predicate, CategoricalPredicate):
                scores.append(
                    predicate.max_useful_score(Interval(0.0, 0.0))
                )
            else:
                scores.append(math.inf)
        return scores

    def _expr_domain(self, expr: Expression, table_name: str) -> Interval:
        """The range of ``expr`` over ``table_name``, in one counted box
        query.

        SQLite's min/max optimization skips ``SELECT MIN(x), MAX(x)``,
        which scans the table. On a column the backend has indexed, two
        scalar subqueries each read one end of the index instead; an
        expression or an unindexed column keeps the one scan, which the
        subquery form would run twice.
        """
        expr_sql = expr.to_sql()
        with self._load_lock:
            indexed = isinstance(expr, ColumnRef) and any(
                columns[0] == expr.column
                for columns in self._indexes.get(expr.table, ())
            )
        if indexed:
            sql = (
                f"SELECT (SELECT MIN({expr_sql}) FROM {table_name}), "
                f"(SELECT MAX({expr_sql}) FROM {table_name})"
            )
        else:
            sql = f"SELECT MIN({expr_sql}), MAX({expr_sql}) FROM {table_name}"
        cursor = self._cursor()
        with self._timed():
            row = cursor.execute(sql).fetchone()
        self._count_query("box")
        if row is None or row[0] is None:
            return Interval(0.0, 0.0)
        return Interval(float(row[0]), float(row[1]))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_aggregate(
        self, prepared: _SQLitePrepared, conditions: list[str], kind: str
    ) -> AggState:
        spec = prepared.query.constraint.spec
        attribute_sql = (
            spec.attribute.to_sql() if spec.attribute is not None else None
        )
        selects = ", ".join(spec.aggregate.sql_selects(attribute_sql))
        where = " AND ".join(f"({c})" for c in conditions) or "1=1"
        sql = f"SELECT {selects} FROM {prepared.from_sql} WHERE {where}"
        cursor = self._cursor()
        with self._timed():
            row = cursor.execute(sql).fetchone()
        self._count_query(kind)
        return spec.aggregate.state_from_sql(tuple(row))

    def execute_cell(
        self,
        prepared: _SQLitePrepared,
        space: RefinedSpace,
        coords: Sequence[int],
    ) -> AggState:
        conditions = list(prepared.fixed_sql)
        for predicate, (low, high) in zip(
            space.dims, space.cell_ranges(coords)
        ):
            conditions.append(predicate.sql_annulus(low, high))
        return self._run_aggregate(prepared, conditions, "cell")

    def _grid_pass(
        self,
        prepared: _SQLitePrepared,
        space: RefinedSpace,
        lo: Sequence[int],
        hi: Sequence[int],
        shell: Optional[Shell] = None,
    ) -> np.ndarray:
        """One plain ``SELECT`` of the rows in the inclusive box
        ``[lo, hi]``, bucketed into its cells in numpy.

        The WHERE clause keeps tuples admitted at level ``hi`` and drops
        those already admitted at level ``lo - 1`` (their minimal
        coordinate lies below the box); given a shell it also bounds the
        rows' weighted need sum (:func:`_shell_sql`). Each row brings
        one key per dimension and its aggregate attribute
        (:func:`_keyed_rows`). Its coordinate on a dimension is the
        first level in ``lo..hi`` whose ``sql_condition`` admits the
        key, found against the thresholds as SQLite reads them
        (:func:`_parsed_bounds`), so each cell holds exactly the annulus
        a per-cell query would see. Rows whose cell lies outside the
        shell are then dropped: the shell's SQL bound only narrows the
        fetch, it never decides a cell. :func:`grouped_cell_tensor`
        lifts each cell's values; cells no row reaches keep the
        aggregate identity.
        """
        dims = space.dims
        spec = prepared.query.constraint.spec
        step = space.step
        shape = tuple(high - low + 1 for low, high in zip(lo, hi))
        conditions = list(prepared.fixed_sql)
        for d, predicate in enumerate(dims):
            conditions.append(predicate.sql_condition(hi[d] * step))
            if lo[d] > 0:
                below = predicate.sql_condition((lo[d] - 1) * step)
                conditions.append(f"NOT ({below})")
        if shell is not None:
            conditions.extend(_shell_sql(space, hi, shell))
        scores = [
            [level * step for level in range(low, high + 1)]
            for low, high in zip(lo, hi)
        ]
        cursor = self._cursor()
        with self._timed():
            bounds = _parsed_bounds(cursor, dims, scores)
            keys, values = _keyed_rows(cursor, prepared, dims, conditions)
            levels = [
                _categorical_levels(predicate, keys[d], scores[d])
                if isinstance(predicate, CategoricalPredicate)
                else _first_levels(keys[d], *bounds[d])
                for d, predicate in enumerate(dims)
            ]
            cells = np.ravel_multi_index(levels, shape)
            mask = shell_mask(space, lo, hi, shell)
            if mask is not None:
                keep = mask.ravel()[cells]
                cells, values = cells[keep], values[keep]
            tensor = grouped_cell_tensor(spec.aggregate, shape, cells, values)
        self._count_grid(
            lo, hi,
            cells=None if mask is None else int(np.count_nonzero(mask)),
        )
        return tensor

    def execute_box(
        self, prepared: _SQLitePrepared, scores: Sequence[float]
    ) -> AggState:
        dims = prepared.query.refinable_predicates
        check_box_arity(scores, len(dims))
        conditions = list(prepared.fixed_sql)
        for predicate, score in zip(dims, scores):
            conditions.append(predicate.sql_condition(score))
        return self._run_aggregate(prepared, conditions, "box")

    def box_reader(
        self, prepared: _SQLitePrepared, outer: Sequence[float]
    ) -> Callable[[Sequence[float]], AggState]:
        """One plain ``SELECT`` of the rows of the box ``outer``,
        counted as one box query; each probe is then answered in numpy.

        The fetch is a grid pass's (:func:`_keyed_rows`) under
        ``outer``'s WHERE clause. A probe keeps the rows whose keys its
        own ``sql_condition`` admits, compared against its thresholds
        as SQLite reads them (:func:`_parsed_bounds`, one uncounted
        constant-only statement per probe, as in :meth:`_grid_pass`);
        a categorical key must lie in the probe's accepted set. COUNT,
        MIN and MAX states equal :meth:`execute_box`'s exactly, SUM and
        AVG up to the rounding of a numpy sum. A probe of the wrong
        length raises :class:`EngineError`, as :meth:`execute_box` does,
        and so does a probe outside ``outer``: the fetch holds none of
        its rows outside the box.
        """
        dims = prepared.query.refinable_predicates
        check_box_arity(outer, len(dims))
        conditions = list(prepared.fixed_sql) + [
            predicate.sql_condition(score)
            for predicate, score in zip(dims, outer)
        ]
        aggregate = prepared.query.constraint.spec.aggregate
        cursor = self._cursor()
        with self._timed():
            keys, values = _keyed_rows(cursor, prepared, dims, conditions)
        self._count_query("box")

        def read(probe: Sequence[float]) -> AggState:
            check_box_arity(probe, len(dims))
            if any(score > bound for score, bound in zip(probe, outer)):
                raise EngineError(f"probe {probe} outside the box {outer}")
            cursor = self._cursor()
            with self._timed():
                bounds = _parsed_bounds(
                    cursor, dims, [[score] for score in probe]
                )
                admitted = np.ones(len(values), dtype=bool)
                for d, (predicate, score) in enumerate(zip(dims, probe)):
                    if isinstance(predicate, CategoricalPredicate):
                        accepted = predicate.accepted_at(score)
                        admitted &= np.fromiter(
                            (key in accepted for key in keys[d]),
                            dtype=bool,
                            count=len(values),
                        )
                    else:
                        lower, upper = bounds[d]
                        admitted &= _admitted(keys[d], lower[0], upper[0])
                return aggregate.lift(values[admitted])

        return read

    def fetch_rows(
        self,
        prepared: _SQLitePrepared,
        scores: Sequence[float],
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Materialize tuples admitted by a refined query via SQL."""
        dims = prepared.query.refinable_predicates
        conditions = list(prepared.fixed_sql)
        for predicate, score in zip(dims, scores):
            conditions.append(predicate.sql_condition(score))
        where = " AND ".join(f"({c})" for c in conditions) or "1=1"
        select_items = []
        keys = []
        for table_name in prepared.query.tables:
            table = self.database.table(table_name)
            for column in table.schema.column_names:
                keys.append(f"{table_name}.{column}")
                select_items.append(
                    f'{table_name}.{column} AS "{table_name}.{column}"'
                )
        sql = (
            f"SELECT {', '.join(select_items)} "
            f"FROM {prepared.from_sql} WHERE {where}"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        cursor = self._cursor()
        with self._timed():
            fetched = cursor.execute(sql).fetchall()
        self._count_query("box")
        return [dict(zip(keys, row)) for row in fetched]

    # ------------------------------------------------------------------
    # Top-k baseline support
    # ------------------------------------------------------------------
    def topk_admission(self, prepared: _SQLitePrepared, k: int) -> TopKAdmission:
        """The paper's Top-k rewrite: ORDER BY refinement distance LIMIT k."""
        dims = prepared.query.refinable_predicates
        need_exprs = [_need_sql(predicate) for predicate in dims]
        total = (
            " + ".join(
                f"{predicate.weight!r} * ({need})"
                for predicate, need in zip(dims, need_exprs)
            )
            or "0"
        )
        conditions = list(prepared.fixed_sql)
        for predicate, cap in zip(dims, prepared.dim_caps):
            admissible = _admissible_sql(predicate, cap)
            if admissible:
                conditions.append(admissible)
        where = " AND ".join(f"({c})" for c in conditions) or "1=1"
        inner_selects = ", ".join(
            f"({need}) AS need_{index}" for index, need in enumerate(need_exprs)
        )
        outer_selects = ", ".join(
            ["COUNT(*)"] + [f"MAX(need_{index})" for index in range(len(dims))]
        )
        sql = (
            f"SELECT {outer_selects} FROM ("
            f"SELECT {inner_selects} FROM {prepared.from_sql} "
            f"WHERE {where} ORDER BY ({total}) LIMIT {int(k)})"
        )
        cursor = self._cursor()
        with self._timed():
            row = cursor.execute(sql).fetchone()
        self._count_query("box")
        admitted = int(row[0])
        max_scores = tuple(
            0.0 if value is None else float(value) for value in row[1:]
        )
        return TopKAdmission(admitted=admitted, max_scores=max_scores)


# ----------------------------------------------------------------------
# SQL fragments
# ----------------------------------------------------------------------
def _need_sql(predicate: Predicate) -> str:
    """SQL for a tuple's expansion need (clamped-at-zero PScore)."""
    if isinstance(predicate, SelectPredicate):
        expr = predicate.expr.to_sql()
        scale = 100.0 / predicate.effective_denominator
        if predicate.direction is Direction.UPPER:
            hi = predicate.interval.hi
            return (
                f"CASE WHEN {expr} <= {hi!r} THEN 0.0 "
                f"ELSE ({expr} - {hi!r}) * {scale!r} END"
            )
        if predicate.direction is Direction.LOWER:
            lo = predicate.interval.lo
            return (
                f"CASE WHEN {expr} >= {lo!r} THEN 0.0 "
                f"ELSE ({lo!r} - {expr}) * {scale!r} END"
            )
        center = predicate.interval.lo
        return f"ABS({expr} - {center!r}) * {scale!r}"
    if isinstance(predicate, JoinPredicate):
        delta = predicate.delta_sql()
        scale = 100.0 / predicate.denominator
        return (
            f"CASE WHEN {delta} <= {predicate.tolerance!r} THEN 0.0 "
            f"ELSE ({delta} - {predicate.tolerance!r}) * {scale!r} END"
        )
    # Categorical: a CASE ladder over roll-up levels.
    assert isinstance(predicate, CategoricalPredicate)
    column = predicate.column.to_sql()
    clauses = []
    previous: frozenset[str] = frozenset()
    for level in range(predicate.ontology.depth + 1):
        covered = predicate.ontology.expand(predicate.accepted, level)
        fresh = covered - previous
        previous = covered
        if not fresh:
            continue
        in_list = ", ".join(
            "'" + value.replace("'", "''") + "'" for value in sorted(fresh)
        )
        clauses.append(
            f"WHEN {column} IN ({in_list}) "
            f"THEN {level * predicate.level_scale!r}"
        )
    return "CASE " + " ".join(clauses) + " ELSE 1e18 END"


#: Relative rounding slack of a shell's SQL need-sum bound.
_SHELL_SLACK = 1e-9


def _shell_sql(
    space: RefinedSpace, hi: Sequence[int], shell: Shell
) -> list[str]:
    """WHERE conditions a grid pass over ``[0, hi]`` adds to fetch a
    superset of the rows whose cell lies in ``shell``.

    Under the L1 norm a row in cell ``c`` has need ``n_i`` in
    ``((c_i - 1) * step, c_i * step]`` on each dimension, so its
    weighted need sum lies within one weighted grid step per dimension
    below its cell's QScore, and not above it. The sum is bounded on
    both sides with that slack, plus a relative :data:`_SHELL_SLACK` of
    the PScore magnitudes involved for the rounding of SQLite's float
    arithmetic and of the rendered thresholds. No condition under other
    norms: the box alone bounds the fetch.
    """
    norm = space.norm
    if type(norm) is not LpNorm or norm.p != 1.0:
        return []
    lower, upper = shell
    weights = space.weights
    total = " + ".join(
        f"{weight!r} * ({_need_sql(predicate)})"
        for weight, predicate in zip(weights, space.dims)
    )
    magnitude = abs(upper) + sum(
        weight * _need_magnitude(predicate, level * space.step)
        for weight, predicate, level in zip(weights, space.dims, hi)
    )
    slack = _SHELL_SLACK * magnitude
    conditions = [f"{total} <= {upper + slack!r}"]
    if math.isfinite(lower):
        below = lower - sum(weight * space.step for weight in weights)
        conditions.append(f"{total} > {below - slack!r}")
    return conditions


def _need_magnitude(predicate: Predicate, score: float) -> float:
    """A bound, in PScore units, on the keys ``sql_condition(score)``
    admits: the scale a rounding error in a row's need is relative to.
    A categorical level adds one level, for ``level_at``'s 1e-9 nudge."""
    if isinstance(predicate, SelectPredicate):
        refined = predicate.interval_at(score)
        ends = [abs(end) for end in (refined.lo, refined.hi) if math.isfinite(end)]
        return max(ends, default=0.0) * 100.0 / predicate.effective_denominator
    if isinstance(predicate, JoinPredicate):
        return predicate.band_at(score) * 100.0 / predicate.denominator
    return (predicate.level_at(score) + 1) * predicate.level_scale


def _admissible_sql(predicate: Predicate, cap: float) -> str | None:
    """Filter for tuples admissible within the dimension cap."""
    if isinstance(predicate, SelectPredicate):
        outer = predicate.interval_at(cap if predicate.refinable else 0.0)
        expr = predicate.expr.to_sql()
        parts = []
        if math.isfinite(outer.lo):
            parts.append(f"{expr} >= {outer.lo!r}")
        if math.isfinite(outer.hi):
            parts.append(f"{expr} <= {outer.hi!r}")
        return " AND ".join(parts) if parts else None
    if isinstance(predicate, JoinPredicate):
        band = predicate.band_at(cap if predicate.refinable else 0.0)
        if band == 0:
            return f"{predicate.left.to_sql()} = {predicate.right.to_sql()}"
        return f"{predicate.delta_sql()} <= {band!r}"
    assert isinstance(predicate, CategoricalPredicate)
    return predicate.sql_condition(cap if predicate.refinable else 0.0)


def _key_sql(predicate: Predicate) -> str:
    """The value a grid pass fetches to bucket a row on ``predicate``:
    the expression a select predicate bounds, a join's ``Delta`` or a
    categorical predicate's column."""
    if isinstance(predicate, SelectPredicate):
        return predicate.expr.to_sql()
    if isinstance(predicate, JoinPredicate):
        return predicate.delta_sql()
    return predicate.column.to_sql()


def _keyed_rows(
    cursor: sqlite3.Cursor,
    prepared: _SQLitePrepared,
    dims: Sequence[Predicate],
    conditions: Sequence[str],
) -> tuple[list[np.ndarray], np.ndarray]:
    """One plain ``SELECT`` of the rows ``conditions`` admit: each
    dimension's key (:func:`_key_sql`; float64, or object for a
    categorical column) and the aggregate attribute.

    Rows whose attribute is NULL are dropped, as SQL aggregates drop
    them; COUNT(*) has no attribute and keeps every row, with zeros for
    values. Returns the per-dimension key arrays and the values.
    """
    attribute = prepared.query.constraint.spec.attribute
    columns = [_key_sql(predicate) for predicate in dims]
    fields = [
        (f"k{d}", object if isinstance(p, CategoricalPredicate) else np.float64)
        for d, p in enumerate(dims)
    ]
    if attribute is not None:
        columns.append(attribute.to_sql())
        fields.append(("value", np.float64))
    where = " AND ".join(f"({c})" for c in conditions) or "1=1"
    sql = (
        f"SELECT {', '.join(columns)} FROM {prepared.from_sql} "
        f"WHERE {where}"
    )
    rows = np.fromiter(cursor.execute(sql), dtype=np.dtype(fields))
    if attribute is None:
        values = np.zeros(len(rows))
    else:
        rows = rows[~np.isnan(rows["value"])]
        values = rows["value"]
    return [rows[f"k{d}"] for d in range(len(dims))], values


def _key_bounds(predicate: Predicate, score: float) -> tuple[float, float]:
    """The key range ``sql_condition(score)`` admits, as the floats it
    renders; an infinite end is a comparison it omits. A join at band
    0 renders ``left = right``, which admits exactly the rows whose
    ``Delta`` is 0."""
    if isinstance(predicate, JoinPredicate):
        return -math.inf, predicate.band_at(score)
    refined = predicate.interval_at(score)
    return refined.lo, refined.hi


def _parsed_bounds(
    cursor: sqlite3.Cursor,
    dims: Sequence[Predicate],
    scores: Sequence[Sequence[float]],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per numeric dimension, the lower and upper key bounds of each
    level's ``sql_condition`` as SQLite reads their literals.

    SQLite does not round every decimal literal correctly: 3.40.1 reads
    ``-479377.9545921924`` as ``-479377.95459219243``, one ulp from the
    double whose ``repr`` it is. Bucketing against the Python floats
    would put a key equal to such a bound on the wrong side of it, so
    one constant-only ``VALUES`` statement reads every finite bound
    back. An omitted comparison admits every key: -inf below, +inf
    above.
    """
    numeric = [
        d
        for d, predicate in enumerate(dims)
        if not isinstance(predicate, CategoricalPredicate)
    ]
    if not numeric:
        return {}
    table = np.array(
        [_key_bounds(dims[d], score) for d in numeric for score in scores[d]],
        dtype=np.float64,
    )
    finite = np.isfinite(table)
    parsed = np.where(finite, table, [-math.inf, math.inf])
    if finite.any():
        literals = ", ".join(f"({value!r})" for value in table[finite].tolist())
        parsed[finite] = [row[0] for row in cursor.execute(f"VALUES {literals}")]
    ladders = np.split(parsed, np.cumsum([len(scores[d]) for d in numeric])[:-1])
    return {d: (ladder[:, 0], ladder[:, 1]) for d, ladder in zip(numeric, ladders)}


def _first_levels(
    keys: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Offset of the first level whose bounds admit each key, as a
    ``CASE`` ladder over the levels' conditions would find it.

    Each side's bounds only widen from level to level, so one binary
    search per side finds the first level that side admits, and the
    later of the two admits both. The bounds SQLite reads widen too: it
    misreads a literal by one ulp, far less than a grid step moves a
    bound. The WHERE clause admits every fetched row at the last level.
    """
    return np.maximum(
        np.searchsorted(-lower, -keys), np.searchsorted(upper, keys)
    )


def _admitted(keys: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Which keys ``lower <= key <= upper`` admits. An infinite bound
    is a comparison ``sql_condition`` omits, which admits every key,
    NULL (NaN) included."""
    admitted = np.ones(len(keys), dtype=bool)
    if math.isfinite(lower):
        admitted &= keys >= lower
    if math.isfinite(upper):
        admitted &= keys <= upper
    return admitted


def _categorical_levels(
    predicate: CategoricalPredicate,
    keys: np.ndarray,
    scores: Sequence[float],
) -> np.ndarray:
    """Offset of the first score whose ``IN`` list holds each key."""
    first: dict[str, int] = {}
    for offset, score in enumerate(scores):
        for value in predicate.accepted_at(score):
            first.setdefault(value, offset)
    return np.array([first[key] for key in keys], dtype=np.intp)


def _index_plan(
    database: Database, query: Query
) -> list[tuple[str, tuple[str, ...]]]:
    """The ``(table, columns)`` indexes :meth:`SQLiteBackend.prepare`
    asks for, in order: one per join column, led by it and followed by
    the other columns the query reads of its table (select and
    categorical keys in predicate order, the table's other join
    columns, every constraint's attribute columns), then one per select
    column. A ``STR`` column leads no index."""

    def refs(columns: set[str]) -> list[tuple[str, str]]:
        return [tuple(ref.split(".", 1)) for ref in sorted(columns)]

    keys: list[tuple[str, str]] = []
    joins: list[tuple[str, str]] = []
    for predicate in query.predicates:
        side = joins if isinstance(predicate, JoinPredicate) else keys
        side.extend(refs(_predicate_columns(predicate)))
    attributes = [
        ref
        for constraint in query.constraints
        if constraint.spec.attribute is not None
        for ref in refs(constraint.spec.attribute.columns())
    ]
    read = list(dict.fromkeys(keys + joins + attributes))

    def numeric(table_name: str, column_name: str) -> bool:
        schema = database.table(table_name).schema
        return schema.column(column_name).ctype is not ColumnType.STR

    covering = [
        (table_name, (lead,) + tuple(
            column for table, column in read
            if table == table_name and column != lead
        ))
        for table_name, lead in dict.fromkeys(joins)
        if numeric(table_name, lead)
    ]
    return covering + [
        (table_name, (column,))
        for table_name, column in dict.fromkeys(keys)
        if numeric(table_name, column)
    ]


def _covers(wide: Sequence[str], narrow: Sequence[str]) -> bool:
    """Whether an index on ``wide`` serves every read one on ``narrow``
    does: ``narrow`` is a leading prefix of ``wide``. Holding the same
    columns in another order is not enough, since a lookup seeks on an
    index's leading columns only."""
    return tuple(wide[: len(narrow)]) == tuple(narrow)


def _index_name(table_name: str, columns: Sequence[str]) -> str:
    """``idx_table(a,b)``. Table and column names are bare SQL
    identifiers, which hold no parenthesis or comma, so no two
    ``(table, columns)`` pairs share a name."""
    return f"idx_{table_name}({','.join(columns)})"


def _predicate_columns(predicate: Predicate) -> set[str]:
    if isinstance(predicate, SelectPredicate):
        return predicate.expr.columns()
    if isinstance(predicate, JoinPredicate):
        return predicate.left.columns() | predicate.right.columns()
    return predicate.column.columns()
