"""Common scaffolding for the compared techniques."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.error import AggregateErrorFunction, default_error_for
from repro.core.query import Query
from repro.core.scoring import LpNorm, Norm
from repro.engine.backends import EvaluationLayer, ExecutionStats
from repro.exceptions import QueryModelError


@dataclass
class MethodRun:
    """One technique's outcome on one ACQ, in the paper's three metrics.

    ``qscore``/``pscores`` measure refinement (Figure 8c/9c),
    ``error`` the relative aggregate error (Figure 8b/9b), and
    ``elapsed_s``/``execution`` the cost (Figure 8a/9a plus
    machine-independent counters).
    """

    method: str
    aggregate_value: float
    error: float
    qscore: float
    pscores: tuple[float, ...]
    elapsed_s: float
    execution: ExecutionStats
    satisfied: bool
    details: dict = field(default_factory=dict)


class BaselineTechnique:
    """Base class: timing, stats diffing, and aggregate support checks.

    The paper (section 8.2): "unlike ACQUIRE, (a) none of the above
    techniques addresses aggregates other than COUNT, and (b) even for
    COUNT, none of the above techniques are capable of refining join
    predicates." We enforce (a) by default; ``allow_any_aggregate``
    lifts it for what-if experiments. (b) holds mechanically for Top-k
    (no bounding query exists) but BinSearch/TQGen inherit join support
    from our evaluation layer — strictly more generous to the baselines
    than the paper, which only strengthens any ACQUIRE win.
    """

    name = "baseline"
    supported_aggregates = frozenset({"COUNT"})

    def __init__(
        self,
        delta: float = 0.05,
        norm: Optional[Norm] = None,
        dim_cap_default: float = 400.0,
        allow_any_aggregate: bool = False,
        error_fn: Optional[AggregateErrorFunction] = None,
    ) -> None:
        if delta < 0:
            raise QueryModelError("delta must be >= 0")
        self.delta = delta
        self.norm: Norm = norm if norm is not None else LpNorm(1)
        self.dim_cap_default = dim_cap_default
        self.allow_any_aggregate = allow_any_aggregate
        self.error_fn = error_fn

    # ------------------------------------------------------------------
    def run(self, layer: EvaluationLayer, query: Query) -> MethodRun:
        aggregate = query.constraint.spec.aggregate
        if (
            not self.allow_any_aggregate
            and aggregate.name not in self.supported_aggregates
        ):
            raise QueryModelError(
                f"{self.name} only supports "
                f"{sorted(self.supported_aggregates)} aggregates "
                f"(got {aggregate.name}); ACQUIRE handles the rest"
            )
        started = time.perf_counter()
        before = layer.stats.snapshot()
        dim_caps = self._dim_caps(query)
        prepared = layer.prepare(query, dim_caps)
        # Clip each dimension's search range to the observed attribute
        # domain, exactly as the original techniques discretize the
        # actual attribute ranges.
        useful = layer.useful_max_scores(prepared)
        dim_caps = [
            min(cap, score) for cap, score in zip(dim_caps, useful)
        ]
        error_fn = self.error_fn or default_error_for(query.constraint.op)
        run = self._search(layer, prepared, query, dim_caps, error_fn)
        run.elapsed_s = time.perf_counter() - started
        run.execution = layer.stats.since(before)
        run.satisfied = run.error <= self.delta
        return run

    def _dim_caps(self, query: Query) -> list[float]:
        return [
            predicate.limit if predicate.limit is not None
            else self.dim_cap_default
            for predicate in query.refinable_predicates
        ]

    def _search(
        self,
        layer: EvaluationLayer,
        prepared: object,
        query: Query,
        dim_caps: Sequence[float],
        error_fn: AggregateErrorFunction,
    ) -> MethodRun:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _qscore(self, query: Query, pscores: Sequence[float]) -> float:
        return self.norm.qscore(list(pscores), query.weights)
