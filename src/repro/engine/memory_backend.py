"""In-memory numpy evaluation layer.

Prepares an ACQ by materializing its candidate relation once (joins,
NOREFINE filters, per-tuple keys and signed refinement scores — see
:mod:`repro.engine.executor`), then answers every cell/box request with
vectorized key filters, by the one admission rule every exact layer
shares (:func:`~repro.engine.backends.first_levels`): a box query
keeps the rows whose keys its refined predicates admit, and a grid
read buckets each row at the first level that admits its key on each
dimension, computed once per space. Each request scans the candidate
relation, mirroring the per-query scan cost of the paper's Postgres
evaluation layer while keeping the whole system self-contained. The
repartitioning step's probes keep the base-class
:meth:`~repro.engine.backends.EvaluationLayer.box_reader`: one box
query, and one scan, per probe.

:meth:`MemoryBackend.build_bitmap_index` builds the literal section
7.4 structure, a bitmap over grid cells that the per-cell Explore
engine consults to skip empty cells; it is off by default
(``AcquireConfig.use_bitmap_index``) because the paper's baseline
numbers assume plain per-query execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.aggregates import AggState
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import (
    EvaluationLayer,
    Shell,
    TopKAdmission,
    admitted,
    check_box_arity,
    first_levels,
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
    # ``(step, extent, levels)``: each candidate row's level per
    # dimension in the last space read (:meth:`MemoryBackend._levels`).
    levels: Optional[tuple] = None
    # ``(dim, score) -> mask``: the rows a dimension's refined predicate
    # admits at a score, kept for the handle's later box reads.
    admits: dict = field(default_factory=dict)


class MemoryBackend(EvaluationLayer):
    """Evaluation layer over the in-memory columnar engine."""

    def __init__(
        self, database: Database, max_rows: int = DEFAULT_MAX_ROWS
    ) -> None:
        super().__init__()
        self.database = database
        self.max_rows = max_rows

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
    def _levels(
        self, prepared: _MemoryPrepared, space: RefinedSpace
    ) -> np.ndarray:
        """Each candidate row's level on every dimension of ``space``:
        the first grid coordinate whose refined predicate admits its
        key (:func:`first_levels` over the scores ``c * step``), or one
        past the grid's extent. One ``(n, d)`` array per space, kept
        for its later reads."""
        cached = prepared.levels
        if cached is None or cached[:2] != (space.step, space.max_coords):
            keys = prepared.candidate.keys
            levels = np.empty(keys.shape, dtype=np.intp)
            for dim, (predicate, extent) in enumerate(
                zip(space.dims, space.max_coords)
            ):
                levels[:, dim] = first_levels(
                    predicate, keys[:, dim], np.arange(extent + 1) * space.step
                )
            cached = (space.step, space.max_coords, levels)
            prepared.levels = cached
        return cached[2]

    def _box_mask(
        self, prepared: _MemoryPrepared, scores: Sequence[float]
    ) -> np.ndarray:
        """Which candidate rows the refined query at ``scores`` admits.
        A contraction search reads each grid score of a dimension in
        many boxes, so each dimension's mask is computed once per score
        (:attr:`_MemoryPrepared.admits`)."""
        keys = prepared.candidate.keys
        mask = np.ones(len(keys), dtype=bool)
        for dim, (predicate, score) in enumerate(
            zip(prepared.query.refinable_predicates, scores)
        ):
            admits = prepared.admits.get((dim, score))
            if admits is None:
                admits = admitted(predicate, keys[:, dim], score)
                prepared.admits[dim, score] = admits
            mask &= admits
        return mask

    def execute_cell(
        self,
        prepared: _MemoryPrepared,
        space: RefinedSpace,
        coords: Sequence[int],
    ) -> AggState:
        aggregate = prepared.query.constraint.spec.aggregate
        candidate = prepared.candidate
        with self._timed():
            levels = self._levels(prepared, space)
            mask = np.all(levels == np.asarray(coords), axis=1)
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
        """One sweep over every candidate tuple's levels, grouped into
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
            levels = self._levels(prepared, space)
            inside = np.all((levels >= lo) & (levels <= hi), axis=1)
            cells = np.ravel_multi_index((levels[inside] - lo).T, shape)
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

    def execute_box(
        self, prepared: _MemoryPrepared, scores: Sequence[float]
    ) -> AggState:
        candidate = prepared.candidate
        aggregate = prepared.query.constraint.spec.aggregate
        check_box_arity(scores, candidate.keys.shape[1])
        with self._timed():
            mask = self._box_mask(prepared, scores)
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
            positions = np.nonzero(self._box_mask(prepared, scores))[0]
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
        """Section 7.4: bitmap over grid cells, from the rows' levels."""
        with self._timed():
            index = GridBitmapIndex(self._levels(prepared, space))
        self._count_rows(prepared.candidate.nrows)
        return index
