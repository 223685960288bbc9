"""Result rows shared by every experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines.base import MethodRun


@dataclass
class Row:
    """One (x-value, method) measurement in a sweep.

    Mirrors the paper's three reported metrics — execution time,
    relative aggregate error, refinement score — plus the
    machine-independent work counters our evaluation layers expose.
    ``repartition_probes`` and ``repartitioned_cells`` are an ACQUIRE
    run's bisection probes and the cells they bisected (0 for the
    baselines).
    """

    x_name: str
    x_value: Any
    method: str
    time_ms: float
    error: float
    qscore: float
    aggregate_value: float
    queries: int
    rows_scanned: int
    satisfied: bool
    materializations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    explore_mode: str = ""
    top_k: int = 1
    repartition_probes: int = 0
    repartitioned_cells: int = 0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_run(cls, x_name: str, x_value: Any, run: MethodRun) -> "Row":
        return cls(
            x_name=x_name,
            x_value=x_value,
            method=run.method,
            time_ms=run.elapsed_s * 1000.0,
            error=run.error,
            qscore=run.qscore,
            aggregate_value=run.aggregate_value,
            queries=run.execution.queries_executed,
            rows_scanned=run.execution.rows_scanned,
            satisfied=run.satisfied,
            materializations=run.execution.grid_materializations,
            cache_hits=run.execution.cache_hits,
            cache_misses=run.execution.cache_misses,
            cache_bytes=run.execution.cache_bytes,
            explore_mode=str(run.details.get("explore_mode", "")),
            top_k=int(run.details.get("top_k", 1)),
            repartition_probes=int(run.details.get("repartition_probes", 0)),
            repartitioned_cells=int(
                run.details.get("repartitioned_cells", 0)
            ),
            extra=dict(run.details),
        )


@dataclass
class ExperimentResult:
    """All rows of one experiment plus its paper context."""

    name: str
    title: str
    paper_expectation: str
    rows: list[Row]
    settings: dict = field(default_factory=dict)

    def methods(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.method not in seen:
                seen.append(row.method)
        return seen

    def series(self, method: str, metric: str) -> list[tuple[Any, float]]:
        """(x, metric) pairs for one method, in sweep order."""
        return [
            (row.x_value, getattr(row, metric))
            for row in self.rows
            if row.method == method
        ]

    def speedup(
        self, metric: str, baseline: str, against: str = "ACQUIRE"
    ) -> Optional[float]:
        """Geometric-mean ratio baseline/against over shared x values."""
        ours = dict(self.series(against, metric))
        theirs = dict(self.series(baseline, metric))
        shared = [
            (theirs[x], ours[x])
            for x in ours
            if x in theirs
            and ours[x] > 0
            and theirs[x] > 0
            and math.isfinite(ours[x])
            and math.isfinite(theirs[x])
        ]
        if not shared:
            return None
        log_sum = sum(math.log(b / a) for b, a in shared)
        return math.exp(log_sum / len(shared))
