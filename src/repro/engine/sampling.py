"""Sampling-based estimation layer.

The paper (section 3) notes ACQUIRE's evaluation layer "can be replaced
with other techniques such as estimation, and/or sampling", and its
experiments include a 1k-tuple dataset "to mimic a sample based
approach" (section 8.4.3). This wrapper makes that substitution a
first-class citizen: it Bernoulli-samples every table once, delegates
all execution to an inner evaluation layer over the sample, and scales
extensive aggregates (COUNT, SUM, and AVG's numerator/denominator)
back up by the inverse sampling fraction. MIN/MAX are reported
unscaled (they are not extensive; sampling only narrows their range).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.aggregates import AggState
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import EvaluationLayer, TopKAdmission
from repro.engine.catalog import Database
from repro.engine.table import Table
from repro.exceptions import EngineError

#: Aggregates whose states scale linearly with the sampling fraction.
_EXTENSIVE = {"COUNT", "SUM", "AVG"}


def sample_database(
    database: Database,
    fraction: float,
    seed: int = 0,
    tables: Optional[Sequence[str]] = None,
) -> Database:
    """Bernoulli-sample a database.

    ``tables`` restricts sampling to the named tables (the others are
    copied whole). For join queries this is essential: independently
    sampling both sides of a foreign key destroys almost every matching
    pair (the classic join-synopsis problem), so the standard practice
    — sample the fact table, keep dimensions intact — is the default
    recommendation for star-shaped ACQs.
    """
    if not 0 < fraction <= 1:
        raise EngineError(f"sampling fraction must be in (0, 1], got {fraction}")
    to_sample = set(tables) if tables is not None else set(
        database.table_names
    )
    unknown = to_sample - set(database.table_names)
    if unknown:
        raise EngineError(f"cannot sample unknown tables: {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    sampled = Database(f"{database.name}_sample")
    for table in database:
        if table.name in to_sample:
            mask = rng.random(len(table)) < fraction
        else:
            mask = np.ones(len(table), dtype=bool)
        sampled.add_table(
            Table.from_columns(
                table.name,
                {
                    name: table.column(name)[mask]
                    for name in table.schema.column_names
                },
            )
        )
    return sampled


class SamplingBackend(EvaluationLayer):
    """Estimation layer: run on a sample, scale results back up."""

    def __init__(
        self,
        database: Database,
        fraction: float,
        seed: int = 0,
        backend_factory: Optional[Callable[[Database], EvaluationLayer]] = None,
        tables: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__()
        if backend_factory is None:
            from repro.engine.memory_backend import MemoryBackend

            backend_factory = MemoryBackend
        self.fraction = float(fraction)
        self.sampled_tables = (
            frozenset(tables) if tables is not None
            else frozenset(database.table_names)
        )
        self.sampled_database = sample_database(
            database, fraction, seed, tables
        )
        self._inner = backend_factory(self.sampled_database)

    def persistent_cache_key(self) -> tuple:
        from repro.core.grid_cache import database_digest

        # The sampled database digest captures fraction/seed/tables
        # (different draws differ in content); the inner class matters
        # because it executes the sampled queries.
        return (
            "SamplingBackend",
            type(self._inner).__name__,
            database_digest(self.sampled_database),
        )

    def close(self) -> None:
        self._inner.close()
        super().close()

    # Delegate stats to the inner layer so instrumentation is unified.
    @property
    def stats(self):  # type: ignore[override]
        return self._inner.stats

    @stats.setter
    def stats(self, value) -> None:
        # The base-class __init__ assigns a fresh stats object before
        # _inner exists; ignore it and keep delegating afterwards.
        if hasattr(self, "_inner"):
            self._inner.stats = value

    def reset_stats(self) -> None:
        self._inner.reset_stats()

    # ------------------------------------------------------------------
    def prepare(
        self, query: Query, dim_caps: Optional[Sequence[float]] = None
    ):
        return self._inner.prepare(query, dim_caps)

    def useful_max_scores(self, prepared) -> list[float]:
        return self._inner.useful_max_scores(prepared)

    def _scale(self, query: Query, state: AggState) -> AggState:
        aggregate = query.constraint.spec.aggregate
        if aggregate.name not in _EXTENSIVE:
            return state
        # Sampled tables thin the result independently, so the
        # join/cross result scales by the product of the fractions of
        # the *sampled* tables referenced by the query.
        sampled = sum(
            1 for table in query.tables if table in self.sampled_tables
        )
        factor = self.fraction ** sampled
        if factor == 0:
            return state
        return tuple(value / factor for value in state)

    def execute_cell(self, prepared, space: RefinedSpace, coords) -> AggState:
        state = self._inner.execute_cell(prepared, space, coords)
        return self._scale(prepared.query, state)

    def execute_cells(
        self, prepared, space: RefinedSpace, coords_list, parallelism: int = 1
    ) -> list[AggState]:
        """Delegate the batch to the inner layer, then scale each state."""
        states = self._inner.execute_cells(
            prepared, space, coords_list, parallelism=parallelism
        )
        return [self._scale(prepared.query, state) for state in states]

    def execute_grid(self, prepared, space: RefinedSpace) -> np.ndarray:
        """Delegate grid materialization, then rescale the tensor.

        The elementwise ``tensor / factor`` applies the exact division
        :meth:`_scale` performs per state component, so the rescaled
        grid is bit-identical to scaling each cell individually.
        """
        tensor = self._inner.execute_grid(prepared, space)
        aggregate = prepared.query.constraint.spec.aggregate
        if aggregate.name not in _EXTENSIVE:
            return tensor
        sampled = sum(
            1 for table in prepared.query.tables
            if table in self.sampled_tables
        )
        factor = self.fraction ** sampled
        if factor == 0:
            return tensor
        return tensor / factor

    def execute_grid_tile(self, prepared, space, lo, hi) -> np.ndarray:
        """Delegate tile materialization, then rescale like
        :meth:`execute_grid` — the same elementwise division keeps the
        tile bit-identical to the rescaled full grid's ``[lo, hi]``
        box."""
        tensor = self._inner.execute_grid_tile(prepared, space, lo, hi)
        aggregate = prepared.query.constraint.spec.aggregate
        if aggregate.name not in _EXTENSIVE:
            return tensor
        sampled = sum(
            1 for table in prepared.query.tables
            if table in self.sampled_tables
        )
        factor = self.fraction ** sampled
        if factor == 0:
            return tensor
        return tensor / factor

    def execute_box(self, prepared, scores) -> AggState:
        state = self._inner.execute_box(prepared, scores)
        return self._scale(prepared.query, state)

    def topk_admission(self, prepared, k: int) -> TopKAdmission:
        scaled_k = max(int(round(k * self.fraction)), 1)
        admission = self._inner.topk_admission(prepared, scaled_k)
        return TopKAdmission(
            admitted=min(int(round(admission.admitted / self.fraction)), k),
            max_scores=admission.max_scores,
        )
