"""Candidate-relation construction for the memory backend.

The memory evaluation layer reduces an ACQ to a *candidate relation*:
the joined, pre-filtered set of tuples that could be admitted by *some*
refinement within the per-dimension caps, each carrying

* its key on every refinable dimension (a select's expression value, a
  join's ``|left - right|``, a categorical value's roll-up distance),
  which decides admission (:func:`~repro.engine.backends.first_levels`);
* its signed minimal refinement score on every refinable dimension
  (see :mod:`repro.core.predicate`), which orders tuples for Top-k and
  feeds the estimating layers; and
* the value of the constraint's aggregate attribute.

Every cell/box query then becomes a conjunction of key filters over
numpy arrays — a faithful cost model for a database scan, with the
advantage that NOREFINE equi-joins are executed exactly once. The
prefilters admit by key too: NOREFINE predicates at score 0, refinable
ones at their dimension cap.

Join machinery: NOREFINE equi-joins use sort-based hash-equivalent
matching; refinable joins are materialized as *band joins* with the
half-width implied by the dimension cap, after which the join dimension
behaves exactly like a select dimension (paper section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predicate import (
    CategoricalPredicate,
    JoinPredicate,
    Predicate,
    SelectPredicate,
)
from repro.core.query import Query
from repro.engine.backends import admitted
from repro.engine.catalog import Database
from repro.engine.expression import Expression
from repro.exceptions import EngineError

#: Refuse to materialize joins bigger than this many rows.
DEFAULT_MAX_ROWS = 20_000_000


@dataclass
class CandidateRelation:
    """Output of :func:`build_candidate`.

    Attributes:
        keys: ``(n, d)`` per-dimension keys, which decide admission.
        scores: ``(n, d)`` signed per-dimension refinement scores.
        agg_values: aggregate attribute per tuple (zeros for COUNT(*)).
        rows_scanned: base-table rows touched while building.
        useful_max_scores: largest finite positive score per dimension
            (0 when no tuple needs expansion on that dimension).
        frame: per-table base-row indices of each candidate tuple,
            aligned with ``scores`` — the provenance needed to
            materialize result tuples (the paper's "result tuples can
            either be stored in main memory or paged to disk").
    """

    keys: np.ndarray
    scores: np.ndarray
    agg_values: np.ndarray
    rows_scanned: int
    useful_max_scores: list[float]
    frame: dict[str, np.ndarray]

    @property
    def nrows(self) -> int:
        return int(self.scores.shape[0])


def build_candidate(
    database: Database,
    query: Query,
    dim_caps: list[float],
    max_rows: int = DEFAULT_MAX_ROWS,
) -> CandidateRelation:
    """Join, pre-filter, key and score the query's candidate tuples:
    those every NOREFINE predicate admits at score 0 and every
    refinable one at its dimension cap."""
    dims = query.refinable_predicates
    if len(dim_caps) != len(dims):
        raise EngineError(
            f"expected {len(dims)} dim caps, got {len(dim_caps)}"
        )
    frame_builder = _FrameBuilder(database, query, dict(zip(dims, dim_caps)))
    frame, rows_scanned = frame_builder.build(max_rows)
    frame_size = len(next(iter(frame.values()))) if frame else 0

    batch = _batch_for(database, frame, query)
    fixed = _fixed_mask(query, batch, frame_size)

    keep = fixed.copy()
    key_matrix = np.empty((frame_size, len(dims)), dtype=np.float64)
    score_matrix = np.empty((frame_size, len(dims)), dtype=np.float64)
    useful_max = []
    for dim, (predicate, cap) in enumerate(zip(dims, dim_caps)):
        keys = np.broadcast_to(_dimension_keys(predicate, batch), frame_size)
        scores = (
            keys * predicate.level_scale
            if isinstance(predicate, CategoricalPredicate)
            else predicate.scores_of_values(keys)
        )
        within = fixed & admitted(predicate, keys, cap)
        keep &= within
        key_matrix[:, dim], score_matrix[:, dim] = keys, scores
        finite = scores[within & np.isfinite(scores)]
        positive = finite[finite > 0]
        useful_max.append(float(np.max(positive)) if len(positive) else 0.0)

    agg_values = _aggregate_values(query, batch, frame_size)
    return CandidateRelation(
        keys=key_matrix[keep],
        scores=score_matrix[keep],
        agg_values=agg_values[keep],
        rows_scanned=rows_scanned,
        useful_max_scores=useful_max,
        frame={table: indices[keep] for table, indices in frame.items()},
    )


# ----------------------------------------------------------------------
# Frame construction (joins)
# ----------------------------------------------------------------------
class _FrameBuilder:
    """Materializes the joined row-index frame for a query."""

    def __init__(
        self,
        database: Database,
        query: Query,
        dim_caps: dict[Predicate, float],
    ) -> None:
        self.database = database
        self.query = query
        self.dim_caps = dim_caps

    def build(self, max_rows: int) -> tuple[dict[str, np.ndarray], int]:
        rows_scanned = 0
        base_indices: dict[str, np.ndarray] = {}
        for table_name in self.query.tables:
            table = self.database.table(table_name)
            rows_scanned += len(table)
            base_indices[table_name] = self._prefilter(table_name)

        pending = [
            p for p in self.query.predicates if isinstance(p, JoinPredicate)
        ]
        first = self.query.tables[0]
        frame: dict[str, np.ndarray] = {first: base_indices[first]}
        remaining = [t for t in self.query.tables if t != first]

        while remaining:
            progressed = False
            for join in list(pending):
                bridge = self._bridging(join, frame, remaining)
                if bridge is None:
                    continue
                frame_expr, new_expr, new_table = bridge
                frame = self._band_join(
                    frame,
                    frame_expr,
                    new_table,
                    base_indices[new_table],
                    new_expr,
                    self._band_width(join),
                    max_rows,
                )
                pending.remove(join)
                remaining.remove(new_table)
                progressed = True
                break
            if progressed:
                continue
            # No join connects the frame to a remaining table: fall back
            # to a guarded cross product with the next table.
            new_table = remaining.pop(0)
            frame = self._cross_join(
                frame, new_table, base_indices[new_table], max_rows
            )
        # A join still pending, whose tables are all in the frame, is
        # admitted by key with the others in build_candidate.
        return frame, rows_scanned

    # -- per-table pre-filtering ---------------------------------------
    def _prefilter(self, table_name: str) -> np.ndarray:
        """Rows of one table admissible within the dimension caps."""
        table = self.database.table(table_name)
        indices = np.arange(len(table))
        mask = np.ones(len(table), dtype=bool)
        batch = {
            f"{table_name}.{column}": table.column(column)
            for column in table.schema.column_names
        }
        for predicate in self.query.predicates:
            if isinstance(predicate, JoinPredicate):
                continue
            if _predicate_tables(predicate) != {table_name}:
                continue
            keys = _dimension_keys(predicate, batch)
            mask &= admitted(predicate, keys, self.dim_caps.get(predicate, 0.0))
        return indices[mask]

    def _band_width(self, join: JoinPredicate) -> float:
        return join.band_at(self.dim_caps.get(join, 0.0))

    def _bridging(
        self,
        join: JoinPredicate,
        frame: dict[str, np.ndarray],
        remaining: list[str],
    ) -> tuple[Expression, Expression, str] | None:
        """If the join connects the frame to exactly one new table,
        return (frame-side expr, new-side expr, new table)."""
        frame_tables = set(frame)
        for frame_expr, new_expr in (
            (join.left, join.right),
            (join.right, join.left),
        ):
            new_tables = new_expr.tables()
            if (
                frame_expr.tables() <= frame_tables
                and len(new_tables) == 1
                and next(iter(new_tables)) in remaining
            ):
                return frame_expr, new_expr, next(iter(new_tables))
        return None

    # -- join kernels ----------------------------------------------------
    def _band_join(
        self,
        frame: dict[str, np.ndarray],
        frame_expr: Expression,
        new_table: str,
        new_indices: np.ndarray,
        new_expr: Expression,
        band: float,
        max_rows: int,
    ) -> dict[str, np.ndarray]:
        frame_values = _evaluate_on_frame(
            self.database, frame, frame_expr
        )
        new_batch = {
            f"{new_table}.{column}": self.database.table(new_table)
            .column(column)[new_indices]
            for column in _columns_of(new_expr, new_table)
        }
        new_values = np.asarray(
            new_expr.evaluate(new_batch), dtype=np.float64
        )
        if new_values.ndim == 0:
            new_values = np.full(len(new_indices), float(new_values))

        order = np.argsort(new_values, kind="stable")
        sorted_values = new_values[order]
        # A band search rounds ``frame +- band``; a few ulps of slack
        # keep every pair the join admits by key, which build_candidate
        # then checks exactly. An equi-join's search is exact.
        slack = 4 * np.spacing(np.abs(frame_values) + band) if band else 0.0
        low = np.searchsorted(
            sorted_values, frame_values - band - slack, side="left"
        )
        high = np.searchsorted(
            sorted_values, frame_values + band + slack, side="right"
        )
        counts = high - low
        total = int(np.sum(counts))
        if total > max_rows:
            raise EngineError(
                f"band join to {new_table!r} would materialize {total} rows "
                f"(cap {max_rows}); lower the refinement cap"
            )
        frame_positions = np.repeat(np.arange(len(frame_values)), counts)
        offsets = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        new_positions = order[np.repeat(low, counts) + offsets]

        joined = {
            table: indices[frame_positions] for table, indices in frame.items()
        }
        joined[new_table] = new_indices[new_positions]
        return joined

    def _cross_join(
        self,
        frame: dict[str, np.ndarray],
        new_table: str,
        new_indices: np.ndarray,
        max_rows: int,
    ) -> dict[str, np.ndarray]:
        frame_size = len(next(iter(frame.values()))) if frame else 0
        total = frame_size * len(new_indices)
        if total > max_rows:
            raise EngineError(
                f"cross product with {new_table!r} would materialize "
                f"{total} rows (cap {max_rows}); add a join predicate"
            )
        joined = {
            table: np.repeat(indices, len(new_indices))
            for table, indices in frame.items()
        }
        joined[new_table] = np.tile(new_indices, frame_size)
        return joined


# ----------------------------------------------------------------------
# Batch evaluation helpers
# ----------------------------------------------------------------------
def _columns_of(expr: Expression, table: str) -> list[str]:
    return [
        ref.split(".", 1)[1]
        for ref in expr.columns()
        if ref.startswith(table + ".")
    ]


def _evaluate_on_frame(
    database: Database, frame: dict[str, np.ndarray], expr: Expression
) -> np.ndarray:
    batch = {}
    for ref in expr.columns():
        table, column = ref.split(".", 1)
        batch[ref] = database.table(table).column(column)[frame[table]]
    values = np.asarray(expr.evaluate(batch), dtype=np.float64)
    if values.ndim == 0:
        size = len(next(iter(frame.values()))) if frame else 0
        values = np.full(size, float(values))
    return values


def _batch_for(
    database: Database, frame: dict[str, np.ndarray], query: Query
) -> dict[str, np.ndarray]:
    """Gather every column any predicate or the aggregate touches."""
    needed: set[str] = set()
    for predicate in query.predicates:
        if isinstance(predicate, SelectPredicate):
            needed |= predicate.expr.columns()
        elif isinstance(predicate, JoinPredicate):
            needed |= predicate.left.columns() | predicate.right.columns()
        else:
            needed |= predicate.column.columns()
    attribute = query.constraint.spec.attribute
    if attribute is not None:
        needed |= attribute.columns()
    batch = {}
    for ref in needed:
        table, column = ref.split(".", 1)
        batch[ref] = database.table(table).column(column)[frame[table]]
    return batch


def _fixed_mask(
    query: Query, batch: dict[str, np.ndarray], size: int
) -> np.ndarray:
    """Which frame tuples every NOREFINE predicate admits (by key, at
    score 0)."""
    mask = np.ones(size, dtype=bool)
    for predicate in query.fixed_predicates:
        mask &= admitted(predicate, _dimension_keys(predicate, batch), 0.0)
    return mask


def _dimension_keys(
    predicate: Predicate, batch: dict[str, np.ndarray]
) -> np.ndarray:
    """Each frame tuple's key on one predicate: a select's expression
    value, a join's ``|left - right|``, a categorical value's roll-up
    distance."""
    if isinstance(predicate, SelectPredicate):
        return np.asarray(predicate.expr.evaluate(batch), dtype=np.float64)
    if isinstance(predicate, JoinPredicate):
        left = np.asarray(predicate.left.evaluate(batch), dtype=np.float64)
        right = np.asarray(predicate.right.evaluate(batch), dtype=np.float64)
        return np.abs(left - right)
    return predicate.distances(batch[next(iter(predicate.column.columns()))])


def _aggregate_values(
    query: Query, batch: dict[str, np.ndarray], size: int
) -> np.ndarray:
    attribute = query.constraint.spec.attribute
    if attribute is None:
        return np.zeros(size, dtype=np.float64)
    values = np.asarray(attribute.evaluate(batch), dtype=np.float64)
    if values.ndim == 0:
        values = np.full(size, float(values))
    return values


def _predicate_tables(predicate: Predicate) -> set[str]:
    if isinstance(predicate, SelectPredicate):
        return predicate.expr.tables()
    if isinstance(predicate, JoinPredicate):
        return predicate.left.tables() | predicate.right.tables()
    return predicate.column.tables()
