"""Result objects returned by the ACQUIRE driver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.interval import Interval
from repro.core.query import Query
from repro.engine.backends import ExecutionStats
from repro.exceptions import QueryModelError


@dataclass(frozen=True)
class RefinedQuery:
    """One refined query recommended by ACQUIRE.

    Attributes:
        pscores: per-predicate refinement vector (paper Equation 2),
            indexed like ``query.refinable_predicates``.
        qscore: query refinement score under the configured norm.
        aggregate_value: the actual aggregate ``Aactual`` of this query.
        error: aggregate error ``Err_A`` against the constraint target —
            for multi-constraint ACQs the worst error over all
            constraints (:class:`~repro.core.scoring.MaxConstraintDistance`).
        coords: originating grid coordinates (``None`` for off-grid
            queries produced by repartitioning).
        intervals: refined value interval per refinable predicate.
        extra_values: actual aggregates of the extra constraints, in
            ``query.extra_constraints`` order (empty for the common
            single-constraint case).
    """

    query: Query
    pscores: tuple[float, ...]
    qscore: float
    aggregate_value: float
    error: float
    intervals: tuple[Interval, ...]
    coords: Optional[tuple[int, ...]] = None
    extra_values: tuple[float, ...] = ()

    @property
    def aggregate_values(self) -> tuple[float, ...]:
        """Per-constraint actual aggregates, primary first."""
        return (self.aggregate_value,) + self.extra_values

    def describe(self) -> str:
        """Human-readable rendering of the refined predicates."""
        parts = []
        for predicate, score in zip(
            self.query.refinable_predicates, self.pscores
        ):
            parts.append(predicate.describe(score))
        for predicate in self.query.fixed_predicates:
            parts.append(predicate.describe() + " /*NOREFINE*/")
        where = "\n  AND ".join(parts) if parts else "1=1"
        return (
            f"SELECT * FROM {', '.join(self.query.tables)}\n"
            f"WHERE {where}\n"
            f"-- {self.query.constraint.spec.describe()} = "
            f"{self.aggregate_value:g} (QScore {self.qscore:.3f})"
        )


@dataclass
class SearchStats:
    """Work performed by one ACQUIRE run.

    ``explore_mode`` records which Explore engine finished the search —
    ``incremental``, ``materialized`` or ``shells`` (``incremental``
    also when a shell search went on cell by cell once a ball's box
    would exceed ``materialize_cell_cap``; see
    :mod:`repro.core.plan`), or ``box`` for a contraction search, which
    reads one box query per examined grid query; ``plan_reason`` is the
    plan's justification (``forced``, ``auto`` or ``grid-cache``, and
    ``contraction`` for a contraction search). A multi-constraint search
    reads each constraint through its own engine, all under one plan:
    ``cells_executed`` and ``cells_skipped`` sum over the engines, and
    ``explore_mode`` is the primary's (the engines read the same points
    under the same caps, so they go cell by cell together).
    ``last_qscore`` is the QScore of the last grid query examined.
    ``repartition_probes`` counts the bisection probes of overshooting
    cells, ``repartitioned_cells`` the cells they bisected, each through
    one :meth:`~repro.engine.backends.EvaluationLayer.box_reader`. How
    many backend queries a cell's probes cost depends on the layer:
    SQLite reads the cell's box once, the other layers run one box query
    per probe (``execution.box_queries`` counts them).
    Backend and cache counters live in ``execution``
    (``queries_executed``, ``grid_materializations`` — one per shell of
    a shell search —, ``cache_hits``, ``cache_bytes``, ...).
    ``top_k`` is the ranking depth the search was asked for
    (``AcquireConfig.top_k``): the traversal keeps exploring layers
    until the k best answer layers are complete instead of just the
    first. ``stop_reason`` says why the search stopped: ``answers``
    (the k-th answer layer is complete), ``overshoot`` (a whole layer
    of an EQ search overshot the target), ``budget``
    (``max_grid_queries`` grid queries examined) or ``exhausted`` (the
    traversal, or the points the section 7.2 prune leaves reachable,
    ran out).
    """

    top_k: int = 1
    grid_queries_examined: int = 0
    cells_executed: int = 0
    cells_skipped: int = 0
    layers_explored: int = 0
    repartition_probes: int = 0
    repartitioned_cells: int = 0
    elapsed_s: float = 0.0
    explore_mode: str = "incremental"
    plan_reason: str = ""
    last_qscore: float = 0.0
    stop_reason: str = ""
    execution: ExecutionStats = field(default_factory=ExecutionStats)


@dataclass
class AcquireResult:
    """Outcome of one ACQUIRE run (paper Definition 1's answer set).

    ``answers`` holds every refined query in the terminating layer whose
    aggregate error is within delta, ordered by (qscore, error).
    ``closest`` is the examined query with smallest error — returned
    per Algorithm 4 when no query satisfies the constraint.
    """

    query: Query
    answers: list[RefinedQuery]
    closest: Optional[RefinedQuery]
    original_value: float
    stats: SearchStats

    @property
    def satisfied(self) -> bool:
        return bool(self.answers)

    @property
    def best(self) -> Optional[RefinedQuery]:
        """The recommended query: best answer, else the closest one."""
        if self.answers:
            return self.answers[0]
        return self.closest

    def top(self, k: Optional[int] = None) -> list[RefinedQuery]:
        """The k best alternative refinements, (qscore, error)-ranked.

        Defaults to the ``top_k`` the search ran with. The list is
        score-monotone (non-decreasing qscore) and its first element is
        always ``best`` when the constraint was satisfied: extra ranks
        come from exploring *further* layers, which can never displace
        an earlier one. Fewer than k entries means the space genuinely
        holds fewer satisfying refinements (within the search budget).
        """
        if k is None:
            k = self.stats.top_k or 1
        if k < 1:
            raise QueryModelError(f"top(k) requires k >= 1, got {k}")
        return self.answers[:k]

    @property
    def qscore(self) -> float:
        best = self.best
        return best.qscore if best is not None else math.inf

    @property
    def error(self) -> float:
        best = self.best
        return best.error if best is not None else math.inf

    def alternatives_table(self, limit: int = 10) -> str:
        """Aligned text table of the answer set (the user-facing menu).

        The paper's desired user experience: "The output of such a
        search would be a set of refined queries ... Alice would then
        simply pick the query that best meets her selection criteria."
        """
        candidates = self.answers[:limit] or (
            [self.closest] if self.closest else []
        )
        if not candidates:
            return "(no refined queries found)"
        dims = self.query.refinable_predicates
        header = ["#", "QScore", "A_actual", "err"] + [
            predicate.name for predicate in dims
        ]
        body = []
        for index, answer in enumerate(candidates, start=1):
            body.append(
                [
                    str(index),
                    f"{answer.qscore:.2f}",
                    f"{answer.aggregate_value:g}",
                    f"{answer.error:.4f}",
                ]
                + [str(interval) for interval in answer.intervals]
            )
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body))
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)

    def summary(self) -> str:
        target = self.query.constraint.target
        lines = [
            f"query {self.query.name!r}: target "
            f"{self.query.constraint.describe()} "
            f"(original {self.original_value:g})",
            f"  answers: {len(self.answers)} "
            f"(satisfied={self.satisfied})",
        ]
        best = self.best
        if best is not None:
            lines.append(
                f"  best: QScore={best.qscore:.3f} "
                f"A={best.aggregate_value:g} err={best.error:.4f} "
                f"(target {target:g})"
            )
        stats = self.stats
        probes = (
            f"{stats.repartition_probes} repartition probes over "
            f"{stats.repartitioned_cells} cells, "
            if stats.repartition_probes else ""
        )
        lines.append(
            f"  work: {stats.grid_queries_examined} grid queries, "
            f"{stats.cells_executed} cell executions, {probes}"
            f"{stats.execution.queries_executed} backend queries, "
            f"{stats.elapsed_s * 1000:.1f} ms "
            f"({self._explore_note()}), stopped: {stats.stop_reason}"
        )
        return "\n".join(lines)

    def _explore_note(self) -> str:
        stats = self.stats
        if stats.explore_mode != "shells":
            return f"{stats.explore_mode} explore"
        return (
            f"shells explore, {stats.execution.grid_materializations} "
            "shell passes"
        )
