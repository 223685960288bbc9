"""The ACQUIRE driver (paper section 6, Algorithm 4).

Putting it all together: iterate Expand and Explore, starting at the
origin of the refined space, layer by layer in order of increasing
QScore. For each grid query, compute the aggregate incrementally
(Algorithm 3), compare against ``Aexp``:

* within the error threshold ``delta`` — record the query and finish
  the current layer, collecting every alternative with the same
  refinement score, then stop;
* overshooting by more than ``delta`` (equality constraints only) —
  *repartition* the cell: probe ``b`` refined queries between the
  cell's inner corner and the grid query by bisection, keeping the
  best (Algorithm 4 lines 13-14; note the paper's pseudo-code prints
  the overshoot test with a flipped inequality — the prose in
  sections 3 and 6 makes clear repartitioning applies to overshoot,
  which is what we implement);
* otherwise — continue expanding.

If no query ever satisfies the constraint, the query attaining the
closest aggregate value is returned, as in the paper.

Contraction (section 7.2) runs the same loop,
:meth:`Acquire._search`, over a
:class:`~repro.core.contraction.ContractionSpace`; the rules that depend
on the direction ask the space (``contracts``, ``overshoots``,
``inner_corner``).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.core.error import AggregateErrorFunction, default_error_for
from repro.core.expand import LAYER_DECIMALS, make_traversal
from repro.core.explore import BoxExplorer, Explorer
from repro.core.grid_cache import GridTensorCache
from repro.core.grid_explore import GridExplorer
from repro.core.plan import MODES, choose_explore_mode
from repro.core.query import ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.result import AcquireResult, RefinedQuery, SearchStats
from repro.core.scoring import (
    ConstraintDistance,
    LInfNorm,
    LpNorm,
    MaxConstraintDistance,
    Norm,
)
from repro.engine.backends import (
    EvaluationLayer,
    ExecutionStats,
    PreparedQuery,
)
from repro.exceptions import QueryModelError

#: Tolerance when comparing QScores for layer membership.
_LAYER_EPS = 1e-9

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AcquireConfig:
    """Tunable parameters of the search (paper's gamma, delta, b, norm).

    Attributes:
        gamma: refinement threshold — grid step is ``gamma / d`` and the
            returned answers are within ``gamma`` of the optimum
            (Theorem 1).
        delta: aggregate error threshold ``Err_A <= delta``.
        norm: QScore norm; defaults to the paper's L1.
        step: explicit grid step override.
        repartition_iterations: the paper's tunable ``b``.
        traversal: ``auto`` / ``lp`` / ``linf`` (see
            :func:`repro.core.expand.make_traversal`).
        dim_cap_default: maximum PScore a dimension may receive when the
            predicate carries no explicit limit; also bounds band-join
            materialization in the memory backend.
        max_grid_queries: safety valve on examined grid queries.
        error_fn: custom aggregate error function; defaults to the
            constraint-appropriate function from
            :func:`repro.core.error.default_error_for`.
        use_bitmap_index: consult the section 7.4 bitmap index (only
            effective on backends that can build one).
        explore_mode: Explore engine selection — ``incremental`` (one
            cell round trip per visited grid query), ``materialized``
            (compute the whole cell grid in one backend pass, then
            answer every grid query from the tensor), or ``auto`` (the
            default: read the cells the traversal has reached in
            growing QScore shells, one grid pass per shell; the whole
            grid when a grid cache is configured and the grid is under
            both caps; see :mod:`repro.core.plan`). All modes produce
            identical answer sets; see ``docs/EXPLORE_MODES.md``.
            Contraction searches ignore the mode: they read each
            examined grid query with one box query (``explore_mode``
            ``box`` in their stats).
        materialize_cell_cap: largest box (in cells) the grid engine
            may allocate. ``auto``'s shell reads go on cell by cell,
            like ``incremental``, once a ball's bounding box would
            exceed it; forcing ``materialized`` on a larger grid
            raises.
        grid_cache: optional
            :class:`~repro.core.grid_cache.GridTensorCache` shared
            across runs; the grid engine consults it before issuing
            a backend grid pass, so constraint sweeps
            over the same data pay for each tensor once.
        top_k: how many distinct answer layers to complete before the
            traversal stops. 1 (default) reproduces the paper's
            stopping rule — finish the first layer that produced an
            answer; ``k > 1`` keeps exploring until the k best-ranked
            answers' layers are complete, so ``result.top(k)`` is a
            certified ranking of alternative refinements (the first
            element is always identical to the ``top_k=1`` answer).
        constraint_distance: combiner for per-constraint errors of a
            multi-constraint ACQ (``CONSTRAINT c1 AND c2``); defaults
            to :class:`~repro.core.scoring.MaxConstraintDistance`,
            whose conjunction semantics make ``error <= delta`` mean
            "every constraint within delta". Identity for
            single-constraint queries either way.
    """

    gamma: float = 10.0
    delta: float = 0.05
    norm: Norm = field(default_factory=lambda: LpNorm(1))
    step: Optional[float] = None
    repartition_iterations: int = 8
    traversal: str = "auto"
    dim_cap_default: float = 400.0
    max_grid_queries: int = 500_000
    error_fn: Optional[AggregateErrorFunction] = None
    use_bitmap_index: bool = False
    explore_mode: str = "auto"
    materialize_cell_cap: int = 2_000_000
    grid_cache: Optional[GridTensorCache] = None
    top_k: int = 1
    constraint_distance: Optional[ConstraintDistance] = None

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise QueryModelError("top_k must be >= 1")
        if self.gamma <= 0:
            raise QueryModelError("gamma must be > 0")
        if self.delta < 0:
            raise QueryModelError("delta must be >= 0")
        if self.repartition_iterations < 0:
            raise QueryModelError("repartition_iterations must be >= 0")
        if self.explore_mode not in MODES:
            raise QueryModelError(
                "explore_mode must be 'auto', 'incremental' or "
                f"'materialized', got {self.explore_mode!r}"
            )
        if self.materialize_cell_cap < 1:
            raise QueryModelError("materialize_cell_cap must be >= 1")


class Acquire:
    """Refinement-driven ACQ processor bound to an evaluation layer."""

    def __init__(self, layer: EvaluationLayer) -> None:
        self.layer = layer

    # ------------------------------------------------------------------
    def run(
        self,
        query: Query,
        config: Optional[AcquireConfig] = None,
        *,
        strict: bool = False,
    ) -> AcquireResult:
        """Process an ACQ, producing the refined answer set.

        Expansion constraints (``=``, ``>=``, ``>``) search the
        expansion grid. Contraction constraints (``<=``, ``<``) — and
        equality constraints whose original query already overshoots —
        go to :func:`~repro.core.contraction.contract_query`, which
        runs the same loop over the section 7.2 contraction grid.

        With ``strict=True`` the query is statically analyzed first
        (:mod:`repro.analysis`) and ERROR-level diagnostics — provably
        unsatisfiable constraints, zero-dimensional refined spaces —
        raise :class:`~repro.exceptions.AnalysisError` before any
        sub-query executes.
        """
        config = config or AcquireConfig()
        if strict:
            self._preflight(query, config)
        if not query.constraint.op.is_expansion:
            # Looked up through the module at call time, so a wrapper
            # installed on ``contraction.contract_query`` sees the call.
            from repro.core import contraction

            return contraction.contract_query(self.layer, query, config)
        return self._expand(query, config)

    # ------------------------------------------------------------------
    def _preflight(self, query: Query, config: AcquireConfig) -> None:
        """Static pre-flight: raise on ERROR-level diagnostics.

        Needs the backend's catalog; backends without a ``database``
        attribute skip the analysis (there is nothing to check against).
        """
        database = getattr(self.layer, "database", None)
        if database is None:
            return
        # Imported here: repro.analysis depends on this module.
        from repro.analysis import analyze

        report = analyze(query, database, config)
        for diagnostic in report.warnings:
            logger.warning(
                "pre-flight %s: %s", diagnostic.code, diagnostic.message
            )
        report.raise_if_errors()

    # ------------------------------------------------------------------
    def _expand(self, query: Query, config: AcquireConfig) -> AcquireResult:
        # One stat scope per search: the layer may be shared by
        # concurrent drivers (``repro.service``), where snapshot/delta
        # windows would attribute other requests' work to this one.
        with self.layer.request_scope() as layer_scope:
            return self._expand_scoped(query, config, layer_scope)

    def _expand_scoped(
        self,
        query: Query,
        config: AcquireConfig,
        layer_scope: "ExecutionStats",
    ) -> AcquireResult:
        started = time.perf_counter()
        constraint = query.constraint
        aggregate = constraint.spec.aggregate
        target = constraint.target
        error_fn = config.error_fn or default_error_for(constraint.op)

        dim_caps = [
            predicate.limit if predicate.limit is not None
            else config.dim_cap_default
            for predicate in query.refinable_predicates
        ]
        prepared = self.layer.prepare(query, dim_caps)
        useful = self.layer.useful_max_scores(prepared)
        max_scores = [
            min(cap, score) for cap, score in zip(dim_caps, useful)
        ]
        space = RefinedSpace(
            query, config.gamma, max_scores, config.norm, config.step
        )
        plan = choose_explore_mode(space, config)
        logger.debug(
            "explore plan: %s (%s; grid=%d cells)",
            plan.mode, plan.reason, plan.grid_cells,
        )
        explorer = self._explorer(prepared, space, config, plan.mode)
        stats = SearchStats(
            top_k=config.top_k,
            explore_mode=plan.mode,
            plan_reason=plan.reason,
        )

        # Figure 2, step 1: estimate the original aggregate first; an
        # equality query that already overshoots cannot be fixed by
        # expansion — hand it to the contraction extension.
        original_value = explorer.compute_aggregate(space.origin)
        if (
            constraint.op is ConstraintOp.EQ
            and aggregate.monotone_expanding
            and original_value > target
            and error_fn(target, original_value) > config.delta
        ):
            from repro.core import contraction

            result = contraction.contract_query(self.layer, query, config)
            # Report the outer scope: it credited the overshoot
            # probe above *and* (scopes nest) every backend event
            # of the contraction search, so per-request stats stay
            # an exact partition of the layer's work.
            result.stats.execution = layer_scope.snapshot()
            return result
        # Each extra constraint gets its own prepared handle and engine
        # over the same space and plan, so every engine reads the
        # points the search examines the way the primary's does.
        explorers = [explorer] + [
            self._explorer(
                self.layer.prepare(query.with_only_constraint(extra), dim_caps),
                space, config, plan.mode,
            )
            for extra in query.extra_constraints
        ]
        return self._search(
            config, explorers, stats, original_value, started, layer_scope
        )

    def _search(
        self,
        config: AcquireConfig,
        explorers: Sequence[Explorer | GridExplorer | BoxExplorer],
        stats: SearchStats,
        original_value: float,
        started: float,
        layer_scope: "ExecutionStats",
    ) -> AcquireResult:
        """The search loop of both directions (Algorithm 4).

        Walks the engines' shared space layer by layer and reads each
        examined grid query through every engine of ``explorers``, one
        per constraint in ``query.constraints`` order; the caller has
        read the primary's origin value already. The space decides what
        differs by direction: the traversal (a contraction grid is
        always walked best-first), the EQ layer early stop (expansion
        only), what overshooting means and where a repartitioned cell's
        inner corner lies, and the section 7.2 prune (contraction only).
        """
        explorer, *extra_explorers = explorers
        space, prepared = explorer.space, explorer.prepared
        query = space.query
        constraint = query.constraint
        aggregate = constraint.spec.aggregate
        target = constraint.target
        error_fn = config.error_fn or default_error_for(constraint.op)
        distance = config.constraint_distance or MaxConstraintDistance()
        extras = [
            (extra.target, default_error_for(extra.op))
            for extra in query.extra_constraints
        ]

        answers: list[RefinedQuery] = []
        # The closest examined query: its (error, qscore) rank and
        # what it is. A grid point that is not an answer stays
        # (coords, actual, error, extra_values) until the search
        # ends, so only answers and the final closest become
        # RefinedQuery objects; answers and repartition candidates
        # already are ones, shared with ``answers``.
        closest_rank: Optional[tuple[float, float]] = None
        closest: RefinedQuery | tuple | None = None
        # Grid-layer QScores at which answers were recorded, in
        # traversal (hence non-decreasing) order. The stop threshold
        # is the k-th smallest: with top_k=1 this is exactly the
        # paper's answer_layer rule, with k > 1 the traversal keeps
        # going until the k best answer layers are complete.
        answer_layers: list[float] = []

        def answer_threshold() -> float:
            if len(answer_layers) < config.top_k:
                return math.inf
            return answer_layers[config.top_k - 1]

        # Early-stop bookkeeping for monotone aggregates with equality
        # constraints: when every query in layer k+1 contains some
        # query in layer k, once an entire layer overshoots
        # target*(1+delta) no later layer can come back within the
        # threshold. Layers nest like that only under L1 or L-inf with
        # equal weights: with unequal weights or another norm a later
        # layer holds points that contain no point of an earlier one.
        # A multi-constraint conjunction breaks the monotone argument
        # for the combined error, so extras disable the shortcut.
        check_overshoot = (
            not space.contracts
            and constraint.op is ConstraintOp.EQ
            and aggregate.monotone_expanding
            and not extras
            and _layers_nest(space)
        )
        layer_key: Optional[float] = None
        layer_min_actual = math.inf

        # The traversal is consumed layer by layer (maximal runs of
        # equal rounded QScore). Concatenated, the layers reproduce the
        # per-coordinate stream exactly. ``layers_scored`` carries each
        # point's QScore along, so no grid point is ever scored twice.
        kind = "lp" if space.contracts else config.traversal
        layers = make_traversal(space, kind).layers_scored()
        pruned: Optional[set[tuple[int, ...]]] = None
        if (
            space.contracts
            and config.top_k == 1
            and aggregate.monotone_expanding
            and not extras
        ):
            pruned = set()
            layers = _reachable(layers, space, pruned)
        stop = False
        for layer_scored in layers:
            first_qscore = layer_scored[0][1]
            if first_qscore > answer_threshold() + _LAYER_EPS:
                break  # the k-th answer layer is fully explored
            if check_overshoot:
                key = round(first_qscore, LAYER_DECIMALS)
                if layer_key is None:
                    layer_key = key
                elif key != layer_key:
                    if layer_min_actual > target * (1 + config.delta):
                        break  # the whole previous layer overshot
                    layer_key = key
                    layer_min_actual = math.inf
            if stats.grid_queries_examined >= config.max_grid_queries:
                break
            # Only what the examination loop can reach under the
            # query budget, so cells_executed is identical to serial
            # even when the budget truncates a layer.
            remaining = (
                config.max_grid_queries - stats.grid_queries_examined
            )
            reachable = [coords for coords, _ in layer_scored[:remaining]]
            # One read of the layer's values per engine, lazy: a cell
            # executes, a shell or a box is read only when ``next``
            # pulls its first point below; the grid engine gathers the
            # whole layer at once.
            values = explorer.compute_aggregates(reachable)
            extra_values_of = [
                engine.compute_aggregates(reachable)
                for engine in extra_explorers
            ]
            for coords, qscore in layer_scored:
                if qscore > answer_threshold() + _LAYER_EPS:
                    stop = True
                    break
                if stats.grid_queries_examined >= config.max_grid_queries:
                    stop = True
                    break
                stats.grid_queries_examined += 1
                stats.last_qscore = qscore

                actual = next(values)
                error = error_fn(target, actual)
                extra_values = ()
                if extras:
                    extra_values = tuple(map(next, extra_values_of))
                    error = distance.combine(
                        [error] + [
                            extra_error_fn(extra_target, value)
                            for (extra_target, extra_error_fn), value
                            in zip(extras, extra_values)
                        ]
                    )
                if check_overshoot and not math.isnan(actual):
                    layer_min_actual = min(layer_min_actual, actual)
                answer = None
                if error <= config.delta:
                    answer = self._refined_query(
                        query, space, coords, actual, error,
                        extra_values=extra_values,
                    )
                # The traversal's QScore is the one a RefinedQuery of
                # this point would carry, so the rank is unchanged.
                rank = (error, qscore)
                if closest_rank is None or rank < closest_rank:
                    closest_rank = rank
                    closest = (
                        (coords, actual, error, extra_values)
                        if answer is None else answer
                    )

                if answer is not None:
                    logger.debug(
                        "answer at %s: A=%g err=%.4f QScore=%.3f",
                        coords, actual, error, qscore,
                    )
                    answers.append(answer)
                    answer_layers.append(qscore)
                elif (
                    constraint.op is ConstraintOp.EQ
                    and not extras
                    and space.overshoots(actual, target)
                ):
                    # Off-grid bisection probes only measure the
                    # primary aggregate, so repartitioning is
                    # restricted to single-constraint queries.
                    candidate = self._repartition(
                        prepared, space, coords, target, error_fn, config,
                        stats,
                    )
                    if candidate is not None:
                        rank = (candidate.error, candidate.qscore)
                        if rank < closest_rank:
                            closest_rank = rank
                            closest = candidate
                        if candidate.error <= config.delta:
                            answers.append(candidate)
                            answer_layers.append(qscore)
                if pruned is not None and space.overshoots(actual, target):
                    pruned.add(coords)
            if stop:
                break

        stats.cells_executed = sum(e.cells_executed for e in explorers)
        stats.cells_skipped = sum(e.cells_skipped for e in explorers)
        if isinstance(explorer, GridExplorer):
            stats.explore_mode = explorer.mode
        # Every answer carries its QScore — including repartitioned
        # ones, whose grid ``coords`` are None — so count answer layers
        # from the QScores directly.
        stats.layers_explored = len(
            {round(a.qscore, LAYER_DECIMALS) for a in answers}
        )
        stats.elapsed_s = time.perf_counter() - started
        stats.execution = layer_scope.snapshot()
        logger.info(
            "ACQUIRE %s: %d answers, %d grid queries, %d cells, %.1f ms",
            query.name,
            len(answers),
            stats.grid_queries_examined,
            stats.cells_executed,
            stats.elapsed_s * 1000,
        )

        if isinstance(closest, tuple):
            coords, actual, error, extra_values = closest
            closest = self._refined_query(
                query, space, coords, actual, error,
                extra_values=extra_values,
            )
        answers.sort(key=lambda a: (a.qscore, a.error))
        return AcquireResult(
            query=query,
            answers=answers,
            closest=closest,
            original_value=original_value,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _explorer(
        self,
        prepared: PreparedQuery,
        space: RefinedSpace,
        config: AcquireConfig,
        mode: str,
    ) -> Explorer | GridExplorer:
        """The Explore engine of one constraint, prepared as
        ``prepared``, under the plan's ``mode``."""
        aggregate = prepared.query.constraint.spec.aggregate
        if mode == "incremental":
            bitmap = None
            if config.use_bitmap_index:
                bitmap = _maybe_bitmap_index(self.layer, prepared, space)
            return Explorer(
                self.layer, prepared, space, aggregate, bitmap_index=bitmap
            )
        # The bitmap index only saves per-cell round trips, which the
        # grid engine issues only past the cap.
        whole = mode == "materialized"
        return GridExplorer(
            self.layer,
            prepared,
            space,
            aggregate,
            config.materialize_cell_cap,
            whole=whole,
            cache=config.grid_cache if whole else None,
        )

    def _refined_query(
        self,
        query: Query,
        space: RefinedSpace,
        coords: Sequence[int],
        actual: float,
        error: float,
        scores: Optional[Sequence[float]] = None,
        extra_values: tuple[float, ...] = (),
    ) -> RefinedQuery:
        if scores is None:
            scores = space.scores(coords)
            grid_coords: Optional[tuple[int, ...]] = tuple(coords)
        else:
            grid_coords = None
        intervals = tuple(
            predicate.interval_at(score)
            for predicate, score in zip(query.refinable_predicates, scores)
        )
        return RefinedQuery(
            query=query,
            pscores=tuple(scores),
            qscore=space.qscore_of_scores(scores),
            aggregate_value=actual,
            error=error,
            intervals=intervals,
            coords=grid_coords,
            extra_values=extra_values,
        )

    def _repartition(
        self,
        prepared: object,
        space: RefinedSpace,
        coords: Sequence[int],
        target: float,
        error_fn: AggregateErrorFunction,
        config: AcquireConfig,
        stats: SearchStats,
    ) -> Optional[RefinedQuery]:
        """Probe refined queries inside the overshooting cell.

        Bisects the segment between the cell's inner corner (the grid
        query one step back toward the original on every dimension that
        has left it, ``space.inner_corner``) and the overshooting query
        itself, backing off whenever a probe overshoots too. For
        monotone aggregates the aggregate moves one way along the
        segment, so bisection converges; for non-monotone aggregates
        (expansion only) the probes still improve the "closest query"
        answer.

        Every probe lies inside the box of the componentwise maximum
        of the two ends (the overshooting query when expanding, the
        inner corner when contracting), so one
        :meth:`~repro.engine.backends.EvaluationLayer.box_reader` over
        that box answers them all (``stats.repartitioned_cells`` counts
        the readers): SQLite reads the box's rows once, the other layers
        run one box query per probe.
        """
        if config.repartition_iterations == 0:
            return None
        hi_scores = space.scores(coords)
        lo_scores = space.inner_corner(hi_scores)
        if hi_scores == lo_scores:
            return None
        aggregate = space.query.constraint.spec.aggregate
        read = self.layer.box_reader(
            prepared, tuple(map(max, lo_scores, hi_scores))
        )
        stats.repartitioned_cells += 1
        best: Optional[RefinedQuery] = None
        low, high = 0.0, 1.0
        for _ in range(config.repartition_iterations):
            midpoint = (low + high) / 2.0
            scores = tuple(
                lo + midpoint * (hi - lo)
                for lo, hi in zip(lo_scores, hi_scores)
            )
            state = read(scores)
            actual = aggregate.finalize(state)
            stats.repartition_probes += 1
            error = error_fn(target, actual)
            candidate = self._refined_query(
                space.query, space, coords, actual, error, scores=scores
            )
            best = _closer(best, candidate)
            if math.isnan(actual) or space.overshoots(actual, target):
                high = midpoint
            else:
                low = midpoint
        return best


def _closer(
    current: Optional[RefinedQuery], candidate: RefinedQuery
) -> RefinedQuery:
    """Keep the query with smaller (error, qscore)."""
    if current is None:
        return candidate
    if (candidate.error, candidate.qscore) < (current.error, current.qscore):
        return candidate
    return current


def _reachable(
    layers: Iterator[list[tuple[tuple[int, ...], float]]],
    space: RefinedSpace,
    pruned: set[tuple[int, ...]],
) -> Iterator[list[tuple[tuple[int, ...], float]]]:
    """The traversal's layers cut down to what the section 7.2 prune
    leaves reachable, one point per layer.

    With one answer asked for, a monotone aggregate and no extra
    constraint, a contraction query whose aggregate has fallen below the
    target only falls further as it shrinks. So a point is yielded only
    if it is the origin, or if a predecessor (one coordinate one step
    lower) was examined and not pruned; the caller adds each pruned
    point to ``pruned`` before it asks for the next layer. The stream
    ends once no later point can be reached. A predecessor may share
    its successor's rounded layer, hence one point per layer.
    """
    reached = {space.origin}
    unexamined = 1
    for layer in layers:
        for point in layer:
            coords = point[0]
            if coords not in reached:
                continue
            yield [point]
            unexamined -= 1
            if coords not in pruned:
                for dim, limit in enumerate(space.max_coords):
                    if coords[dim] < limit:
                        successor = (
                            coords[:dim] + (coords[dim] + 1,) + coords[dim + 1:]
                        )
                        if successor not in reached:
                            reached.add(successor)
                            unexamined += 1
            if not unexamined:
                return


def _layers_nest(space: RefinedSpace) -> bool:
    """Whether every grid query of a rounded-QScore layer contains one
    of each earlier layer: L1 or L-inf with equal refinable weights."""
    norm = space.norm
    if not (
        isinstance(norm, LInfNorm)
        or (isinstance(norm, LpNorm) and norm.p == 1)
    ):
        return False
    return len({float(weight) for weight in space.weights}) <= 1


def _maybe_bitmap_index(
    layer: EvaluationLayer, prepared: object, space: RefinedSpace
) -> Optional[object]:
    """Build a section 7.4 bitmap index when the backend supports it."""
    builder = getattr(layer, "build_bitmap_index", None)
    if builder is None:
        return None
    return builder(prepared, space)
