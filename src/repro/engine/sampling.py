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

    def _factor(self, query: Query) -> float:
        """The share of the query's result rows the sample keeps.

        Sampled tables thin a join/cross result independently, so the
        share is the product of the fractions of the *sampled* tables
        the query references: 1.0 for a query on unsampled tables only
        (or should the product underflow to zero).
        """
        sampled = sum(
            1 for table in query.tables if table in self.sampled_tables
        )
        return self.fraction ** sampled or 1.0

    def _scale(self, query: Query, state):
        """Scale an extensive aggregate state — one state tuple or a
        cell tensor — back up by :meth:`_factor`. The tensor takes the
        same elementwise division as each tuple component, so a
        rescaled grid is bit-identical to rescaling each cell."""
        if query.constraint.spec.aggregate.name not in _EXTENSIVE:
            return state
        factor = self._factor(query)
        if isinstance(state, np.ndarray):
            return state / factor
        return tuple(value / factor for value in state)

    def execute_cell(self, prepared, space: RefinedSpace, coords) -> AggState:
        state = self._inner.execute_cell(prepared, space, coords)
        return self._scale(prepared.query, state)

    def _grid_pass(self, prepared, space, lo, hi, shell=None) -> np.ndarray:
        """The inner layer's grid pass over the box, rescaled."""
        tensor = self._inner._grid_pass(prepared, space, lo, hi, shell=shell)
        return self._scale(prepared.query, tensor)

    def execute_box(self, prepared, scores) -> AggState:
        state = self._inner.execute_box(prepared, scores)
        return self._scale(prepared.query, state)

    def topk_admission(self, prepared, k: int) -> TopKAdmission:
        """Top-k on the sample: ``k`` shrinks by :meth:`_factor`, the
        share of the result the sample keeps, and the admitted count
        scales back up."""
        factor = self._factor(prepared.query)
        scaled_k = max(int(round(k * factor)), 1)
        admission = self._inner.topk_admission(prepared, scaled_k)
        return TopKAdmission(
            admitted=min(int(round(admission.admitted / factor)), k),
            max_scores=admission.max_scores,
        )
