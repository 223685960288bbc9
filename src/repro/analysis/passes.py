"""The analyzer's passes: pure functions from bound query + catalog to
diagnostics.

Each pass inspects the bound :class:`~repro.core.query.Query` and the
:class:`~repro.engine.catalog.Database` catalog statistics *without
executing any sub-query*. Everything here is therefore conservative:
an ERROR is only emitted when the constraint is provably unmeetable
from catalog bounds alone (paper sections 2.2, 2.6 and 4 make these
quantities statically determinable), and anything that depends on the
actual data distribution stays a WARNING or a note.

Diagnostic code map (see ``docs/ANALYSIS.md`` for examples):

====== ======== =====================================================
code   severity meaning
====== ======== =====================================================
ACQ001 ERROR    SQL text could not be parsed
ACQ002 ERROR    parsed query could not be bound against the catalog
ACQ003 ERROR    bound query violates the ACQ model
ACQ101 ERROR    COUNT target above the maximum achievable count
ACQ102 ERROR    SUM target above the maximum achievable sum
ACQ103 ERROR    MIN/MAX/AVG target outside the column's value range
ACQ104 WARNING  constraint is trivially satisfied by any refinement
ACQ201 ERROR    zero-dimensional query (every predicate NOREFINE)
ACQ202 WARNING  dead refinement axis (expansion admits nothing new)
ACQ203 WARNING  contraction constraint but no predicate can shrink
ACQ301 ERROR    aggregate lacks the optimal substructure property
ACQ302 WARNING  AVG is undefined (NaN) over empty result sets
ACQ303 WARNING  SUM over negative values is not monotone expanding
ACQ401 WARNING  refined-space grid exceeds the search budget
ACQ402 WARNING  unbounded refinement axis (no statistics, no limit)
ACQ403 INFO     search-cost estimate (grid size, per-layer counts)
ACQ501 WARNING  grid exceeds materialize_cell_cap (ERROR when the
                materialized engine is forced — execution would raise)
ACQ502 WARNING  config-derived axis extents defeat grid-cache key
                sharing (only with a grid cache configured)
ACQ503 INFO     predicted explore plan (mode, reason; shell reads under auto)
====== ======== =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.analysis.diagnostics import Diagnostic, Severity, Span
from repro.core.acquire import AcquireConfig
from repro.core.interval import Interval
from repro.core.predicate import (
    CategoricalPredicate,
    JoinPredicate,
    Predicate,
    SelectPredicate,
)
from repro.core.query import ConstraintOp, Query
from repro.core.refined_space import MAX_COORD_CAP, RefinedSpace
from repro.engine import expression as engine_expr
from repro.engine.catalog import Database
from repro.engine.statistics import ColumnStats
from repro.sqlext.binder import QuerySpans

#: How many leading layers the cost note reports.
_REPORTED_LAYERS = 6


@dataclass
class AnalysisContext:
    """Everything a pass may consult. No execution handles in here."""

    query: Query
    database: Database
    config: AcquireConfig
    spans: Optional[QuerySpans] = None

    # -- span plumbing --------------------------------------------------
    def predicate_span(self, name: str) -> Optional[Span]:
        if self.spans is None:
            return None
        raw = self.spans.predicate_span(name)
        return Span(*raw) if raw is not None else None

    def constraint_span(self, index: int = 0) -> Optional[Span]:
        """Span of the index-th constraint clause (0 = the primary).

        Multi-constraint ACQs carry one span per clause, so each
        diagnostic can point at the constraint it is about.
        """
        if self.spans is None:
            return None
        raw = self.spans.constraint_span_at(index)
        return Span(*raw) if raw is not None else None

    # -- catalog plumbing -----------------------------------------------
    def column_stats(
        self, expr: engine_expr.Expression
    ) -> Optional[ColumnStats]:
        """Statistics when ``expr`` is a bare column reference."""
        if isinstance(expr, engine_expr.ColumnRef):
            if not self.database.has_table(expr.table):
                return None
            if not self.database.table(expr.table).schema.has_column(
                expr.column
            ):
                return None
            return self.database.column_stats(expr.table, expr.column)
        return None

    def domain_of(self, predicate: Predicate) -> Optional[Interval]:
        """Observed domain of a select predicate's function, if known."""
        if not isinstance(predicate, SelectPredicate):
            return None
        stats = self.column_stats(predicate.expr)
        if stats is None or math.isnan(stats.min_value):
            return None
        return Interval(stats.min_value, stats.max_value)


AnalysisPass = Callable[[AnalysisContext], Iterable[Diagnostic]]


# ----------------------------------------------------------------------
# Pass 1: constraint satisfiability (ACQ1xx)
# ----------------------------------------------------------------------
def satisfiability_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    """Compare each constraint target against catalog upper bounds.

    Full refinement can never admit more than the cross product of the
    FROM tables (COUNT), more mass than a column's total sum (SUM over
    a single table with non-negative values), or values outside a
    column's observed [min, max] (MIN / MAX / AVG). Targets beyond
    those bounds are provably unmeetable without running anything.
    Multi-constraint ACQs are conjunctions, so every clause is checked:
    one provably-unmeetable clause sinks the whole query.
    """
    for index, constraint in enumerate(ctx.query.constraints):
        yield from _constraint_satisfiability(
            ctx, constraint, ctx.constraint_span(index)
        )


def _constraint_satisfiability(
    ctx: AnalysisContext, constraint, span: Optional[Span]
) -> Iterable[Diagnostic]:
    aggregate = constraint.spec.aggregate
    op = constraint.op
    target = constraint.target
    subject = constraint.describe()

    def beyond(bound: float) -> bool:
        """Target provably unreachable for expansion-flavoured ops."""
        if op in (ConstraintOp.EQ, ConstraintOp.GE):
            return target > bound
        if op is ConstraintOp.GT:
            return target >= bound
        return False

    if aggregate.name == "COUNT":
        max_count = 1.0
        for table in ctx.query.tables:
            max_count *= len(ctx.database.table(table))
        if beyond(max_count):
            yield Diagnostic(
                code="ACQ101",
                severity=Severity.ERROR,
                message=(
                    f"constraint {subject} can never hold: even the full "
                    f"cross product of {', '.join(ctx.query.tables)} has "
                    f"only {max_count:g} rows"
                ),
                hint="lower the target X or query a larger dataset",
                span=span,
                subject=subject,
            )
        elif op in (ConstraintOp.LE, ConstraintOp.LT) and target >= max_count:
            yield _trivial(subject, span)
        elif op is ConstraintOp.GE and target == 0:
            yield _trivial(subject, span)

    elif aggregate.name == "SUM":
        stats = ctx.column_stats(constraint.spec.attribute)
        # Joins can duplicate rows, so the column total only bounds
        # single-table queries; negative values break the bound too.
        if (
            stats is not None
            and len(ctx.query.tables) == 1
            and not math.isnan(stats.total)
            and stats.min_value >= 0
            and beyond(stats.total)
        ):
            yield Diagnostic(
                code="ACQ102",
                severity=Severity.ERROR,
                message=(
                    f"constraint {subject} can never hold: the column sums "
                    f"to {stats.total:g} over the whole table"
                ),
                hint="lower the target X below the column's total sum",
                span=span,
                subject=subject,
            )

    elif aggregate.name in ("MIN", "MAX", "AVG"):
        stats = ctx.column_stats(constraint.spec.attribute)
        if stats is not None and not math.isnan(stats.min_value):
            low, high = stats.min_value, stats.max_value
            reachable = True
            if op is ConstraintOp.EQ:
                reachable = low <= target <= high
            elif op in (ConstraintOp.GE, ConstraintOp.GT):
                reachable = (
                    target <= high if op is ConstraintOp.GE else target < high
                )
            elif op in (ConstraintOp.LE, ConstraintOp.LT):
                reachable = (
                    target >= low if op is ConstraintOp.LE else target > low
                )
            if not reachable:
                yield Diagnostic(
                    code="ACQ103",
                    severity=Severity.ERROR,
                    message=(
                        f"constraint {subject} can never hold: every "
                        f"{aggregate.name} over this column lies in "
                        f"[{low:g}, {high:g}]"
                    ),
                    hint=(
                        "pick a target inside the column's observed value "
                        "range"
                    ),
                    span=span,
                    subject=subject,
                )


def _trivial(subject: str, span: Optional[Span]) -> Diagnostic:
    return Diagnostic(
        code="ACQ104",
        severity=Severity.WARNING,
        message=(
            f"constraint {subject} is trivially satisfied by every "
            "refinement; the search will return the original query"
        ),
        hint="tighten the target X to make the constraint informative",
        span=span,
        subject=subject,
    )


# ----------------------------------------------------------------------
# Pass 2: refinability (ACQ2xx)
# ----------------------------------------------------------------------
def refinability_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    """Check that the refined space has live dimensions to search."""
    query = ctx.query
    if query.dimensionality == 0:
        if query.predicates:
            message = (
                "every predicate is marked NOREFINE; the refined space "
                "has no dimensions and ACQUIRE cannot expand anything"
            )
            hint = "drop NOREFINE from at least one predicate"
        else:
            message = (
                "the query has no predicates; there is nothing to refine"
            )
            hint = "add at least one refinable WHERE predicate"
        yield Diagnostic(
            code="ACQ201",
            severity=Severity.ERROR,
            message=message,
            hint=hint,
            span=ctx.constraint_span(),
        )
        return

    for predicate in query.refinable_predicates:
        dead = False
        detail = ""
        if isinstance(predicate, SelectPredicate):
            domain = ctx.domain_of(predicate)
            if domain is not None and predicate.max_useful_score(domain) <= 0:
                dead = True
                detail = (
                    f"its interval already spans the column's observed "
                    f"domain [{domain.lo:g}, {domain.hi:g}]"
                )
        elif isinstance(predicate, CategoricalPredicate):
            base = predicate.ontology.expand(predicate.accepted, 0)
            full = predicate.ontology.expand(
                predicate.accepted, predicate.ontology.depth
            )
            if full <= base:
                dead = True
                detail = (
                    "rolling the accepted values up the ontology admits "
                    "no new categories"
                )
        if dead:
            yield Diagnostic(
                code="ACQ202",
                severity=Severity.WARNING,
                message=(
                    f"refinement axis {predicate.name!r} is dead: {detail}"
                ),
                hint=(
                    "mark the predicate NOREFINE to shrink the search "
                    "grid, or widen the data"
                ),
                span=ctx.predicate_span(predicate.name),
                subject=predicate.name,
            )

    op = query.constraint.op
    if op in (ConstraintOp.LE, ConstraintOp.LT):
        if all(
            predicate.max_shrink_score <= 0
            for predicate in query.refinable_predicates
        ):
            yield Diagnostic(
                code="ACQ203",
                severity=Severity.WARNING,
                message=(
                    f"constraint operator {op.value!r} requires contraction, "
                    "but no refinable predicate can shrink (equality and "
                    "categorical predicates only expand)"
                ),
                hint=(
                    "make a one-sided range predicate refinable, or use an "
                    "expansion operator (=, >=, >)"
                ),
                span=ctx.constraint_span(),
            )


# ----------------------------------------------------------------------
# Pass 3: aggregate / OSP checks (ACQ3xx)
# ----------------------------------------------------------------------
def aggregate_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    """Edge cases of the bound aggregate.

    Non-OSP aggregates never bind (``get_aggregate`` rejects them; the
    SQL entry point turns that into ACQ301), so this pass covers the
    statically detectable soft spots of the ones that do — every clause
    of a multi-constraint conjunction gets its own check.
    """
    for index, constraint in enumerate(ctx.query.constraints):
        yield from _constraint_aggregate_checks(
            ctx, constraint, ctx.constraint_span(index)
        )


def _constraint_aggregate_checks(
    ctx: AnalysisContext, constraint, span: Optional[Span]
) -> Iterable[Diagnostic]:
    aggregate = constraint.spec.aggregate

    if aggregate.name == "AVG":
        yield Diagnostic(
            code="ACQ302",
            severity=Severity.WARNING,
            message=(
                "AVG is undefined (NaN) over empty result sets; if the "
                "original query matches no rows the first layers of the "
                "search cannot evaluate the constraint"
            ),
            hint=(
                "consider a COUNT(*) >= 1 sanity run, or a SUM constraint "
                "if total mass is what you are after"
            ),
            span=span,
            subject=constraint.describe(),
        )

    if aggregate.name == "SUM":
        stats = ctx.column_stats(constraint.spec.attribute)
        if stats is not None and stats.min_value < 0:
            yield Diagnostic(
                code="ACQ303",
                severity=Severity.WARNING,
                message=(
                    "SUM over a column with negative values "
                    f"(min {stats.min_value:g}) is not monotone under "
                    "expansion; layer-level early stopping may prune "
                    "answers"
                ),
                hint="verify results with a non-negative measure column",
                span=span,
                subject=constraint.describe(),
            )


# ----------------------------------------------------------------------
# Pass 4: search-cost pre-estimation (ACQ4xx)
# ----------------------------------------------------------------------
def _build_space(
    ctx: AnalysisContext,
) -> tuple[RefinedSpace, list[str]]:
    """Rebuild the driver's refined space from catalog statistics alone.

    Per-dimension caps come from predicate limits and observed
    attribute domains; axes with neither (no statistics, no explicit
    limit) fall back to the configured cap and are returned by name as
    ``unbounded`` — both the ACQ4xx and ACQ5xx passes reason about
    those.
    """
    query = ctx.query
    max_scores = []
    unbounded: list[str] = []
    for predicate in query.refinable_predicates:
        cap = (
            predicate.limit
            if predicate.limit is not None
            else ctx.config.dim_cap_default
        )
        useful = math.inf
        if isinstance(predicate, SelectPredicate):
            domain = ctx.domain_of(predicate)
            if domain is not None:
                useful = predicate.max_useful_score(domain)
            else:
                unbounded.append(predicate.name)
        elif isinstance(predicate, CategoricalPredicate):
            useful = predicate.max_useful_score(Interval(0.0, 0.0))
        elif isinstance(predicate, JoinPredicate):
            # The delta domain needs a cross product to observe; the
            # driver's cap is the only static bound.
            unbounded.append(predicate.name)
        max_scores.append(min(cap, useful))

    space = RefinedSpace(
        query, ctx.config.gamma, max_scores, ctx.config.norm, ctx.config.step
    )
    return space, unbounded


def cost_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    """Estimate the refined-space grid before any query runs.

    Rebuilds the driver's grid sizing from catalog statistics alone:
    per-dimension caps come from predicate limits and the observed
    attribute domains, the step is ``gamma / d`` (paper Theorem 1), so
    the grid holds roughly ``(100 / (gamma / d))^d`` queries when every
    axis spans its full percent range. Callers can raise ``gamma`` (or
    add per-predicate limits) *before* burning compute.
    """
    query = ctx.query
    if query.dimensionality == 0:
        return  # ACQ201 already covers this

    space, unbounded = _build_space(ctx)

    for name in unbounded:
        predicate = next(
            p for p in query.refinable_predicates if p.name == name
        )
        if predicate.limit is None:
            yield Diagnostic(
                code="ACQ402",
                severity=Severity.WARNING,
                message=(
                    f"refinement axis {name!r} has no catalog statistics; "
                    f"its extent falls back to the configured cap "
                    f"({ctx.config.dim_cap_default:g} PScore)"
                ),
                hint="set an explicit per-predicate limit (paper 7.1)",
                span=ctx.predicate_span(name),
                subject=name,
            )

    grid = space.grid_size
    budget = ctx.config.max_grid_queries
    if grid > budget:
        capped = any(c >= MAX_COORD_CAP for c in space.max_coords)
        yield Diagnostic(
            code="ACQ401",
            severity=Severity.WARNING,
            message=(
                f"the refined space holds {'>' if capped else ''}{grid:g} "
                f"grid queries (d={space.d}, step={space.step:g}), beyond "
                f"the search budget of {budget:g}"
            ),
            hint=(
                "raise gamma (coarser grid), add predicate limits, or "
                "raise max_grid_queries if the cost is intended"
            ),
        )

    layers = space.layer_sizes(_REPORTED_LAYERS)
    yield Diagnostic(
        code="ACQ403",
        severity=Severity.INFO,
        message=(
            f"search-cost estimate: d={space.d}, step={space.step:g}, "
            f"extents={list(space.max_coords)}, grid={grid:g} queries, "
            f"first layers {layers}"
        ),
    )


# ----------------------------------------------------------------------
# Pass 5: plan-cost / cache-geometry checks (ACQ5xx)
# ----------------------------------------------------------------------
def plan_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    """Predict the explore plan and flag grid/cache geometry hazards.

    ACQ501 fires when the refined grid cannot fit a whole-grid tensor
    (``materialize_cell_cap``) — a WARNING under ``auto`` (its shell
    reads go on cell by cell once a ball's box would exceed the cap)
    and ``incremental``, an ERROR when ``explore_mode='materialized'``
    is forced, because execution would raise
    :class:`~repro.exceptions.QueryModelError`.

    ACQ502 fires when a grid cache is configured but some axis extent
    derives from ``dim_cap_default`` rather than the query or the data
    (no catalog statistics, no explicit limit): the cache key then
    embeds a config value, so tensors cached under one configuration
    can never be shared with another — silently defeating the
    persistent tier.

    ACQ503 reports the plan the driver would run — under ``auto``,
    shell reads, or the whole-grid engine when a grid cache is
    configured — so benchmark configs see mode flips (materialized vs
    shells) before running.
    """
    from repro.core.plan import ExplorePlan, choose_explore_mode
    from repro.exceptions import QueryModelError

    query = ctx.query
    if query.dimensionality == 0:
        return  # ACQ201 already covers this

    space, unbounded = _build_space(ctx)
    grid = space.grid_size
    cap = ctx.config.materialize_cell_cap
    try:
        plan: Optional[ExplorePlan] = choose_explore_mode(space, ctx.config)
    except QueryModelError:
        plan = None  # forced materialized over the cap: execution raises

    if grid > cap:
        if plan is None:
            detail = "explore_mode='materialized' would raise at run time"
        elif plan.mode == "shells":
            detail = (
                "shell reads go on cell by cell once a ball's bounding "
                "box would exceed the cap"
            )
        else:
            detail = "explore_mode='incremental' reads it cell by cell"
        yield Diagnostic(
            code="ACQ501",
            severity=Severity.ERROR if plan is None else Severity.WARNING,
            message=(
                f"the refined grid holds {grid:g} cells, over "
                f"materialize_cell_cap ({cap:g}); {detail}"
            ),
            hint=(
                "raise gamma or add predicate limits to shrink the grid, "
                "raise materialize_cell_cap, or use explore_mode='auto'"
            ),
        )

    if unbounded:
        grid_cache = ctx.config.resolve_grid_cache()
        if grid_cache is not None:
            names = ", ".join(repr(name) for name in sorted(unbounded))
            yield Diagnostic(
                code="ACQ502",
                severity=Severity.WARNING,
                message=(
                    f"a grid cache is configured but axis extent(s) for "
                    f"{names} derive from dim_cap_default "
                    f"({ctx.config.dim_cap_default:g}), not the query or "
                    "data; cached tensors key on that config value and "
                    "cannot be shared across configurations"
                ),
                hint=(
                    "set explicit per-predicate limits so cache keys "
                    "depend only on the query and the data"
                ),
            )

    if plan is None:
        return  # forced-materialized over cap: ACQ501 already reported
    shells = (
        ": one grid pass per QScore shell of the cells the search "
        "reaches, cell by cell once a ball's box would exceed "
        "materialize_cell_cap"
        if plan.mode == "shells"
        else ""
    )
    yield Diagnostic(
        code="ACQ503",
        severity=Severity.INFO,
        message=(
            f"plan estimate: explore mode {plan.mode!r} "
            f"({plan.reason}{shells}), grid={grid:g} cells"
        ),
    )


#: Pass registry, in execution order.
PASSES: tuple[AnalysisPass, ...] = (
    satisfiability_pass,
    refinability_pass,
    aggregate_pass,
    cost_pass,
    plan_pass,
)
