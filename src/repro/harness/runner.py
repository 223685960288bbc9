"""Execute one technique on one workload through a shared backend.

The paper implements ACQUIRE *and* every compared technique on top of
the same Postgres instance; here all methods share one evaluation
layer per database (SQLite by default for benchmarks — each probe is a
real SQL query, so baselines pay full join cost per probe while
ACQUIRE's cell queries stay small and indexed, exactly the asymmetry
the paper's numbers reflect).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.baselines import (
    BinSearch,
    HillClimbing,
    MethodRun,
    Skyline,
    TopK,
    TQGen,
)
import logging

from repro.baselines.base import BaselineTechnique
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.query import Query
from repro.engine.backends import EvaluationLayer
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import AnalysisReport

METHOD_NAMES = ("ACQUIRE", "Top-k", "TQGen", "BinSearch")

logger = logging.getLogger(__name__)


def preflight_query(
    layer: EvaluationLayer,
    query: Query,
    config: Optional[AcquireConfig] = None,
) -> Optional["AnalysisReport"]:
    """Statically validate a workload query before a long run.

    Raises :class:`~repro.exceptions.AnalysisError` on ERROR-level
    diagnostics (provably unsatisfiable constraint, nothing to refine)
    so misconfigured experiment sweeps fail in milliseconds instead of
    after hours of sub-queries; warnings are logged and the run
    proceeds. Returns the full analyzer report so callers (the
    experiment sweeps) can surface plan verdicts — e.g. the ACQ5xx
    grid/cache warnings — next to their measurements. Backends without
    a catalog skip the check and return None.
    """
    database = getattr(layer, "database", None)
    if database is None:
        return None
    from repro.analysis import analyze

    report = analyze(query, database, config or AcquireConfig())
    for diagnostic in report.warnings:
        logger.warning(
            "workload %s %s: %s",
            query.name,
            diagnostic.code,
            diagnostic.message,
        )
    report.raise_if_errors()
    return report


def make_backend(database: Database, kind: str = "sqlite") -> EvaluationLayer:
    """Build an evaluation layer ('sqlite' or 'memory')."""
    if kind == "sqlite":
        return SQLiteBackend(database)
    if kind == "memory":
        return MemoryBackend(database)
    raise ReproError(f"unknown backend kind {kind!r}")


def run_acquire(
    layer: EvaluationLayer,
    query: Query,
    config: Optional[AcquireConfig] = None,
) -> MethodRun:
    """Run ACQUIRE and adapt its result to the common MethodRun shape."""
    config = config or AcquireConfig()
    result = Acquire(layer).run(query, config)
    best = result.best
    return MethodRun(
        method="ACQUIRE",
        aggregate_value=best.aggregate_value if best else float("nan"),
        error=best.error if best else float("inf"),
        qscore=best.qscore if best else float("inf"),
        pscores=best.pscores if best else (),
        elapsed_s=result.stats.elapsed_s,
        execution=result.stats.execution,
        satisfied=result.satisfied,
        details={
            "answers": len(result.answers),
            "grid_queries": result.stats.grid_queries_examined,
            "cells": result.stats.cells_executed,
            "original": result.original_value,
            "explore_mode": result.stats.explore_mode,
            "plan_reason": result.stats.plan_reason,
            "last_qscore": result.stats.last_qscore,
            "cell_queries": result.stats.execution.cell_queries,
            "repartition_probes": result.stats.repartition_probes,
            "repartitioned_cells": result.stats.repartitioned_cells,
            "top_k": result.stats.top_k,
            # The certified ranking (qscore per rank) so reports can
            # surface alternatives without re-running the search.
            "top_qscores": [
                answer.qscore for answer in result.top()
            ],
        },
    )


def baseline_for(
    name: str,
    delta: float = 0.05,
    dim_cap_default: float = 400.0,
    **kwargs: object,
) -> BaselineTechnique:
    """Instantiate a baseline by method name."""
    common = dict(delta=delta, dim_cap_default=dim_cap_default)
    common.update(kwargs)
    if name == "Top-k":
        return TopK(**common)  # type: ignore[arg-type]
    if name == "TQGen":
        return TQGen(**common)  # type: ignore[arg-type]
    if name == "BinSearch":
        return BinSearch(**common)  # type: ignore[arg-type]
    if name == "HillClimbing":
        return HillClimbing(**common)  # type: ignore[arg-type]
    if name == "Skyline":
        return Skyline(**common)  # type: ignore[arg-type]
    raise ReproError(f"unknown baseline {name!r}")


def run_method(
    name: str,
    layer: EvaluationLayer,
    query: Query,
    acquire_config: Optional[AcquireConfig] = None,
    baseline_kwargs: Optional[dict] = None,
) -> MethodRun:
    """Dispatch by method name with consistent thresholds.

    The baseline delta/caps default to the ACQUIRE configuration's so
    all methods chase the same tolerance.
    """
    acquire_config = acquire_config or AcquireConfig()
    if name == "ACQUIRE":
        return run_acquire(layer, query, acquire_config)
    kwargs = dict(baseline_kwargs or {})
    technique = baseline_for(
        name,
        delta=kwargs.pop("delta", acquire_config.delta),
        dim_cap_default=kwargs.pop(
            "dim_cap_default", acquire_config.dim_cap_default
        ),
        **kwargs,
    )
    return technique.run(layer, query)
