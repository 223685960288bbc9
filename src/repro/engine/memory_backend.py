"""In-memory numpy evaluation layer.

Prepares an ACQ by materializing its candidate relation once (joins,
NOREFINE filters, per-tuple signed refinement scores — see
:mod:`repro.engine.executor`), then answers every cell/box request with
vectorized score-range filters. Each request scans the candidate
relation, mirroring the per-query scan cost of the paper's Postgres
evaluation layer while keeping the whole system self-contained. The
repartitioning step's probes keep the base-class
:meth:`~repro.engine.backends.EvaluationLayer.box_reader`: one box
query, and one scan, per probe.

Two optional accelerators, both off by default because the paper's
baseline numbers assume plain per-query execution:

* ``vectorized_grid=True`` — pre-aggregates every grid cell in one pass
  (a generalization of the section 7.4 index idea to full pushdown);
  cell queries then cost a dictionary lookup.
* :meth:`MemoryBackend.build_bitmap_index` — the literal section 7.4
  structure: a bitmap over grid cells consulted to skip empty cells.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.aggregates import AggState
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import (
    EvaluationLayer,
    Shell,
    TopKAdmission,
    check_box_arity,
    grouped_cell_tensor,
    shell_mask,
)
from repro.engine.bitmap_index import GridBitmapIndex
from repro.engine.catalog import Database
from repro.engine.executor import (
    DEFAULT_MAX_ROWS,
    CandidateRelation,
    build_candidate,
)


@dataclass
class _MemoryPrepared:
    """Backend-private prepared state."""

    query: Query
    candidate: CandidateRelation
    dim_caps: list[float]
    grid_cache: Dict[int, dict] = field(default_factory=dict)
    # Lazily built when the backend runs in indexed mode: candidate
    # rows ordered by their dimension-0 score, plus the sorted scores
    # themselves (the "index key").
    index_order: Optional[np.ndarray] = None
    index_keys: Optional[np.ndarray] = None


class MemoryBackend(EvaluationLayer):
    """Evaluation layer over the in-memory columnar engine.

    ``indexed=True`` gives cell queries an index-scan cost model: a
    sorted index over the first dimension's scores narrows each cell
    query to the tuples inside that dimension's annulus before the
    remaining dimensions are filtered — cost proportional to the slice,
    like a DBMS using a single-column B-tree, instead of a full scan.
    Results are bit-identical to the plain path.
    """

    def __init__(
        self,
        database: Database,
        max_rows: int = DEFAULT_MAX_ROWS,
        vectorized_grid: bool = False,
        indexed: bool = False,
    ) -> None:
        super().__init__()
        self.database = database
        self.max_rows = max_rows
        self.vectorized_grid = vectorized_grid
        self.indexed = indexed
        # Guards the lazy grid rebuild in _grid_for against concurrent
        # requests (the build is deterministic, so the lock only
        # prevents duplicated work and torn cache state).
        self._grid_build_lock = threading.Lock()

    def persistent_cache_key(self) -> tuple:
        from repro.core.grid_cache import database_digest

        return ("MemoryBackend", database_digest(self.database))

    # ------------------------------------------------------------------
    def prepare(
        self, query: Query, dim_caps: Optional[Sequence[float]] = None
    ) -> _MemoryPrepared:
        if dim_caps is None:
            dim_caps = [0.0] * query.dimensionality
        caps = [float(cap) for cap in dim_caps]
        with self._timed():
            candidate = build_candidate(
                self.database, query, caps, self.max_rows
            )
        self._count_rows(candidate.rows_scanned)
        return _MemoryPrepared(query=query, candidate=candidate, dim_caps=caps)

    def useful_max_scores(self, prepared: _MemoryPrepared) -> list[float]:
        return list(prepared.candidate.useful_max_scores)

    # ------------------------------------------------------------------
    def execute_cell(
        self,
        prepared: _MemoryPrepared,
        space: RefinedSpace,
        coords: Sequence[int],
    ) -> AggState:
        aggregate = prepared.query.constraint.spec.aggregate
        if self.vectorized_grid:
            grid = self._grid_for(prepared, space)
            self._count_query("cell")
            return grid.get(tuple(int(c) for c in coords), aggregate.identity())
        candidate = prepared.candidate
        if self.indexed and candidate.scores.shape[1] > 0:
            return self._execute_cell_indexed(prepared, space, coords)
        with self._timed():
            mask = self._cell_mask(candidate.scores, space, coords)
            state = aggregate.lift(candidate.agg_values[mask])
        self._count_query("cell", rows=candidate.nrows)
        return state

    def _grid_pass(
        self,
        prepared: _MemoryPrepared,
        space: RefinedSpace,
        lo: Sequence[int],
        hi: Sequence[int],
        shell: Optional[Shell] = None,
    ) -> np.ndarray:
        """One digitize sweep over every candidate tuple, grouped into
        the inclusive ``[lo, hi]`` box by :func:`grouped_cell_tensor`.

        Its stable grouping keeps original-row order within each cell —
        the order the serial mask extraction produces — so every state
        is bit-identical to :meth:`execute_cell`. Tuples outside the box
        (or past the grid extent) belong to no cell of it, exactly as
        serial cell queries would never see them; given a shell, tuples
        whose cell lies outside it are dropped too.
        """
        candidate = prepared.candidate
        shape = tuple(high - low + 1 for low, high in zip(lo, hi))
        with self._timed():
            coords = _digitize(candidate.scores, space.step)
            inside = np.all((coords >= lo) & (coords <= hi), axis=1)
            cells = np.ravel_multi_index((coords[inside] - lo).T, shape)
            values = candidate.agg_values[inside]
            mask = shell_mask(space, lo, hi, shell)
            if mask is not None:
                keep = mask.ravel()[cells]
                cells, values = cells[keep], values[keep]
            tensor = grouped_cell_tensor(
                prepared.query.constraint.spec.aggregate, shape, cells, values
            )
        self._count_grid(
            lo, hi, rows=candidate.nrows,
            cells=None if mask is None else int(np.count_nonzero(mask)),
        )
        return tensor

    def _execute_cell_indexed(
        self,
        prepared: _MemoryPrepared,
        space: RefinedSpace,
        coords: Sequence[int],
    ) -> AggState:
        """Cell execution through the dimension-0 score index."""
        candidate = prepared.candidate
        aggregate = prepared.query.constraint.spec.aggregate
        with self._timed():
            if prepared.index_order is None:
                prepared.index_order = np.argsort(
                    candidate.scores[:, 0], kind="stable"
                )
                prepared.index_keys = candidate.scores[
                    prepared.index_order, 0
                ]
            ranges = space.cell_ranges(coords)
            low, high = ranges[0]
            keys = prepared.index_keys
            if low < 0:
                start = 0
                stop = int(np.searchsorted(keys, 0.0, side="right"))
            else:
                start = int(np.searchsorted(keys, low, side="right"))
                stop = int(np.searchsorted(keys, high, side="right"))
            slice_rows = prepared.index_order[start:stop]
            mask = np.ones(len(slice_rows), dtype=bool)
            for dim, (dim_low, dim_high) in enumerate(ranges[1:], start=1):
                column = candidate.scores[slice_rows, dim]
                if dim_low < 0:
                    mask &= column <= 0.0
                else:
                    mask &= (column > dim_low) & (column <= dim_high)
            state = aggregate.lift(
                candidate.agg_values[slice_rows[mask]]
            )
        self._count_query("cell", rows=len(slice_rows))
        return state

    def execute_box(
        self, prepared: _MemoryPrepared, scores: Sequence[float]
    ) -> AggState:
        candidate = prepared.candidate
        aggregate = prepared.query.constraint.spec.aggregate
        check_box_arity(scores, candidate.scores.shape[1])
        with self._timed():
            mask = np.ones(candidate.nrows, dtype=bool)
            for dim, score in enumerate(scores):
                mask &= candidate.scores[:, dim] <= score
            state = aggregate.lift(candidate.agg_values[mask])
        self._count_query("box", rows=candidate.nrows)
        return state

    def topk_admission(
        self, prepared: _MemoryPrepared, k: int
    ) -> TopKAdmission:
        """Admit the k tuples with smallest total refinement distance.

        Distance is the weighted L1 of per-dimension *expansion* needs
        (negative signed scores clamp to zero: a tuple inside the
        original interval needs no refinement on that dimension).
        """
        candidate = prepared.candidate
        dims = prepared.query.refinable_predicates
        with self._timed():
            needs = np.maximum(candidate.scores, 0.0)
            weights = np.array([p.weight for p in dims], dtype=np.float64)
            totals = needs @ weights if needs.size else np.zeros(0)
            admitted = min(k, candidate.nrows)
            if admitted == 0:
                max_scores = tuple(0.0 for _ in dims)
            else:
                chosen = np.argpartition(totals, admitted - 1)[:admitted]
                max_scores = tuple(
                    float(np.max(needs[chosen, dim])) for dim in range(len(dims))
                )
        self._count_query("box", rows=candidate.nrows)
        return TopKAdmission(admitted=admitted, max_scores=max_scores)

    def fetch_rows(
        self,
        prepared: _MemoryPrepared,
        scores: Sequence[float],
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Materialize tuples admitted by a refined query."""
        candidate = prepared.candidate
        with self._timed():
            mask = np.ones(candidate.nrows, dtype=bool)
            for dim, score in enumerate(scores):
                mask &= candidate.scores[:, dim] <= score
            positions = np.nonzero(mask)[0]
            if limit is not None:
                positions = positions[:limit]
            columns: dict[str, np.ndarray] = {}
            for table_name, indices in candidate.frame.items():
                table = self.database.table(table_name)
                chosen = indices[positions]
                for column in table.schema.column_names:
                    columns[f"{table_name}.{column}"] = table.column(
                        column
                    )[chosen]
            rows = [
                {key: values[i] for key, values in columns.items()}
                for i in range(len(positions))
            ]
        self._count_query("box", rows=candidate.nrows)
        return rows

    # ------------------------------------------------------------------
    # Accelerators
    # ------------------------------------------------------------------
    def build_bitmap_index(
        self, prepared: _MemoryPrepared, space: RefinedSpace
    ) -> GridBitmapIndex:
        """Section 7.4: bitmap over grid cells, built in one pass."""
        with self._timed():
            index = GridBitmapIndex.from_scores(
                prepared.candidate.scores, space
            )
        self._count_rows(prepared.candidate.nrows)
        return index

    def _grid_for(self, prepared: _MemoryPrepared, space: RefinedSpace) -> dict:
        """State of every non-empty cell of ``space``, keyed by its
        coordinates: one sweep, cached per space."""
        key = id(space)
        with self._grid_build_lock:
            if key not in prepared.grid_cache:
                candidate = prepared.candidate
                with self._timed():
                    coords = _digitize(candidate.scores, space.step)
                    cells, groups = np.unique(
                        coords, axis=0, return_inverse=True
                    )
                    states = grouped_cell_tensor(
                        prepared.query.constraint.spec.aggregate,
                        (len(cells),),
                        groups.reshape(-1),
                        candidate.agg_values,
                    )
                    prepared.grid_cache.clear()
                    prepared.grid_cache[key] = dict(
                        zip(
                            map(tuple, cells.tolist()),
                            map(tuple, states.tolist()),
                        )
                    )
                self._count_rows(candidate.nrows)
            return prepared.grid_cache[key]

    # ------------------------------------------------------------------
    @staticmethod
    def _cell_mask(
        scores: np.ndarray, space: RefinedSpace, coords: Sequence[int]
    ) -> np.ndarray:
        mask = np.ones(scores.shape[0], dtype=bool)
        for dim, (low, high) in enumerate(space.cell_ranges(coords)):
            column = scores[:, dim]
            if low < 0:
                mask &= column <= 0.0
            else:
                mask &= (column > low) & (column <= high)
        return mask


def _digitize(scores: np.ndarray, step: float) -> np.ndarray:
    """Grid coordinate of each signed score (cell 0 covers <= 0).

    Must agree bitwise with the serial cell predicate
    ``(c - 1) * step < s <= c * step`` (see :meth:`_cell_mask` /
    :meth:`RefinedSpace.cell_ranges`), which compares against the float
    *products*. When ``step`` is not exactly representable, the float
    *quotient* ``s / step`` can land a boundary-adjacent score one cell
    away from where the product comparison puts it — so after the ceil
    guess, nudge each coordinate until it satisfies exactly the serial
    predicate. The loops run at most once per element in practice.
    """
    positive = np.maximum(scores, 0.0)
    cells = np.ceil(positive / step - 1e-12).astype(np.int64)
    np.maximum(cells, 0, out=cells)
    while True:
        too_high = (cells > 0) & (positive <= (cells - 1) * step)
        if not too_high.any():
            break
        cells[too_high] -= 1
    while True:
        too_low = positive > cells * step
        if not too_low.any():
            break
        cells[too_low] += 1
    return cells
