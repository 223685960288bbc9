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

import bisect
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.core.error import (
    AggregateErrorFunction,
    default_error_for,
    error_array,
)
from repro.core.expand import LAYER_DECIMALS, LayerArrays, make_traversal
from repro.core.explore import BoxExplorer, Explorer
from repro.core.grid_cache import GridTensorCache
from repro.core.grid_explore import GridExplorer
from repro.core.plan import MODES, choose_explore_mode
from repro.core.query import ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.result import AcquireResult, RefinedQuery, SearchStats
from repro.core.scoring import LInfNorm, LpNorm, MaxConstraintDistance, Norm
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
        dim_cap_default: maximum PScore a dimension may receive when the
            predicate carries no explicit limit; also bounds band-join
            materialization in the memory backend.
        max_grid_queries: safety valve on examined grid queries.
        error_fn: custom aggregate error function; defaults to the
            constraint-appropriate function from
            :func:`repro.core.error.default_error_for`.
        use_bitmap_index: consult the section 7.4 bitmap index in the
            per-cell engine of an ``explore_mode='incremental'`` search
            (only effective on backends that can build one); the other
            plans ignore it.
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
    """

    gamma: float = 10.0
    delta: float = 0.05
    norm: Norm = field(default_factory=lambda: LpNorm(1))
    step: Optional[float] = None
    repartition_iterations: int = 8
    dim_cap_default: float = 400.0
    max_grid_queries: int = 500_000
    error_fn: Optional[AggregateErrorFunction] = None
    use_bitmap_index: bool = False
    explore_mode: str = "auto"
    materialize_cell_cap: int = 2_000_000
    grid_cache: Optional[GridTensorCache] = None
    top_k: int = 1

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
            # Report the outer scope and clock: the scope credited the
            # overshoot probe above *and* (scopes nest) every backend
            # event of the contraction search, so per-request stats
            # stay an exact partition of the layer's work, and the
            # clock times the same work.
            result.stats.execution = layer_scope.snapshot()
            result.stats.elapsed_s = time.perf_counter() - started
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
        A :class:`_Judge` examines the layers a batch at a time.
        """
        space = explorers[0].space
        query = space.query
        judge = _Judge(self, config, explorers, stats)
        kind = "lp" if space.contracts else "auto"
        chunks = make_traversal(space, kind).layer_arrays()
        if judge.pruned is not None:
            chunks = _reachable(chunks, space, judge.pruned)
        stats.stop_reason = "exhausted"
        # The judge's float arithmetic overflows to inf silently, as
        # Python's does in the error functions it stands in for.
        with np.errstate(over="ignore"):
            for chunk in chunks:
                reason = judge.examine(chunk)
                if reason is not None:
                    stats.stop_reason = reason
                    break
        answers, closest = judge.answers, judge.closest

        stats.cells_executed = sum(e.cells_executed for e in explorers)
        stats.cells_skipped = sum(e.cells_skipped for e in explorers)
        if isinstance(explorers[0], GridExplorer):
            stats.explore_mode = explorers[0].mode
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


class _Judge:
    """Examines a search's grid points a batch of layers at a time.

    A batch starts with one layer whose top checks passed: the answer
    threshold, the EQ overshoot stop and the query budget, in that
    order. Only then is that layer read, so balls, shells, cells and
    box queries are read exactly when a point-by-point loop reads
    them. The batch goes on over every further layer of the
    traversal's chunk that all engines hold already (:meth:`held`),
    under the budget: a grid engine's ball, all of it after a
    whole-grid read. The per-cell and box engines hold nothing, so
    their batches are one layer.

    The layer's examined prefix is fixed from its QScores before any
    of its values is read: an answer found inside a layer cannot stop
    that layer, because same-layer QScores lie within ``_LAYER_EPS``
    of each other. The judge computes each batch's errors, answer and
    overshoot masks, layer minima and closest point in numpy; Python
    handles only answers, repartitioned cells and pruned points, in
    traversal order, and a threshold set by an answer ends the batch
    at the first later point past it.
    """

    def __init__(
        self,
        driver: Acquire,
        config: AcquireConfig,
        explorers: Sequence[Explorer | GridExplorer | BoxExplorer],
        stats: SearchStats,
    ) -> None:
        self.driver = driver
        self.config = config
        self.explorers = explorers
        self.stats = stats
        self.space = space = explorers[0].space
        constraint = space.query.constraint
        monotone = constraint.spec.aggregate.monotone_expanding
        self.target = constraint.target
        self.error_fn = config.error_fn or default_error_for(constraint.op)
        self.extras = [
            (extra.target, default_error_for(extra.op))
            for extra in space.query.extra_constraints
        ]
        single = not self.extras
        # Off-grid bisection probes only measure the primary aggregate,
        # so repartitioning is restricted to single-constraint queries.
        self.repartitions = constraint.op is ConstraintOp.EQ and single
        # Early-stop bookkeeping for monotone aggregates with equality
        # constraints: when every query in layer k+1 contains some
        # query in layer k, once an entire layer overshoots
        # target*(1+delta) no later layer can come back within the
        # threshold. Layers nest like that only under L1 or L-inf with
        # equal weights: with unequal weights or another norm a later
        # layer holds points that contain no point of an earlier one.
        # A multi-constraint conjunction breaks the monotone argument
        # for the combined error, so extras disable the shortcut.
        self.check_overshoot = (
            not space.contracts
            and constraint.op is ConstraintOp.EQ
            and monotone
            and single
            and _layers_nest(space)
        )
        self.overshoot_limit = self.target * (1 + config.delta)
        # The mask thresholds as numpy scalars, which ufuncs take
        # without a conversion per call.
        self.delta = np.float64(config.delta)
        self.target64 = np.float64(self.target)
        self.layer_key: Optional[float] = None
        self.layer_min = math.inf
        # The section 7.2 prune: grid points whose aggregate fell past
        # the target, which ``_reachable`` shrinks no further.
        self.pruned: Optional[set[tuple[int, ...]]] = (
            set()
            if space.contracts and config.top_k == 1 and monotone and single
            else None
        )
        self.answers: list[RefinedQuery] = []
        # Grid-layer QScores at which answers were recorded, in
        # traversal (hence non-decreasing) order. The stop threshold
        # is the k-th smallest: with top_k=1 this is exactly the
        # paper's answer_layer rule, with k > 1 the traversal keeps
        # going until the k best answer layers are complete.
        self.answer_layers: list[float] = []
        self.threshold = math.inf
        # The closest examined query: its (error, qscore) rank and
        # what it is. A grid point that is not an answer stays
        # (coords, actual, error, extra_values) until the search
        # ends, so only answers and the final closest become
        # RefinedQuery objects.
        self.closest_rank: Optional[tuple[float, float]] = None
        self.closest: RefinedQuery | tuple | None = None

    def examine(self, chunk: LayerArrays) -> Optional[str]:
        """Examine a chunk of the traversal batch by batch: why the
        search stops, or None when it goes on past the chunk."""
        coords, qscores, starts = chunk
        explorers = self.explorers
        layer, last = 0, len(starts) - 1
        while layer < last:
            start, stop = starts[layer], starts[layer + 1]
            reason = self._top(qscores.item(start))
            if reason is not None:
                return reason
            remaining = (
                self.config.max_grid_queries - self.stats.grid_queries_examined
            )
            cut = min(stop, start + remaining)
            points = coords[start:cut]
            for engine in explorers:
                engine.reach(points)
            # The layer's examined prefix, fixed before it is read.
            end, reason = cut, (None if cut == stop else "budget")
            if self.threshold < math.inf:
                end, reason = self._threshold_stop(qscores, start, cut, reason)
            first = layer
            layer += 1
            if reason is None and layer < last:
                ahead = coords[stop:min(starts[last], start + remaining)]
                held = len(ahead)
                for engine in explorers:
                    held = min(held, engine.held(ahead))
                    if not held:
                        break
                if held:
                    layer = bisect.bisect_right(starts, stop + held) - 1
                    end = starts[layer]
            if layer - first == 1:
                batch = [0, end - start]
            else:
                batch = [point - start for point in starts[first:layer + 1]]
            if end != cut:
                points = coords[start:end]
            reason = self._batch(points, qscores[start:end], batch, reason)
            if reason is not None:
                return reason
        return None

    def _top(self, qscore: float) -> Optional[str]:
        """The checks at the top of a layer whose first QScore is
        ``qscore``: why the search stops before it, if it does."""
        if qscore > self.threshold + _LAYER_EPS:
            return "answers"  # the k-th answer layer is fully explored
        if self.check_overshoot:
            key = round(qscore, LAYER_DECIMALS)
            if self.layer_key is None:
                self.layer_key = key
            elif key != self.layer_key:
                if self.layer_min > self.overshoot_limit:
                    return "overshoot"  # the whole previous layer overshot
                self.layer_key = key
                self.layer_min = math.inf
        if self.stats.grid_queries_examined >= self.config.max_grid_queries:
            return "budget"
        return None

    def _batch(
        self,
        coords: np.ndarray,
        qscores: np.ndarray,
        starts: list[int],
        reason: Optional[str],
    ) -> Optional[str]:
        """Examine one batch: layers starting at ``starts`` (then the
        batch's length), of which the first passed its top checks.
        ``reason`` is why the search stops after the batch, if it cuts
        its only layer short. Returns why the search stops, or None."""
        config, space, target = self.config, self.space, self.target
        values = self.explorers[0].compute_aggregates(coords)
        errors = error_array(self.error_fn, target, values)
        extra_values: list[np.ndarray] = []
        if self.extras:
            extra_values = [
                engine.compute_aggregates(coords)
                for engine in self.explorers[1:]
            ]
            errors = MaxConstraintDistance().combine_array(
                [errors] + [
                    error_array(error_fn, extra_target, extra)
                    for (extra_target, error_fn), extra
                    in zip(self.extras, extra_values)
                ],
            )
        stop = len(qscores)
        if self.check_overshoot:
            # Layers are maximal runs of one rounded QScore, so each
            # layer's minimum starts afresh. A layer overshoots only
            # when every value in it is a number past the limit: an
            # empty query (NaN) may lie under a point of the next
            # layer, so its NaN minimum never overshoots.
            minima = np.minimum.reduceat(values, starts[:-1])
            overshot = minima[:-1] > self.overshoot_limit
            if overshot.any():
                stop, reason = starts[int(overshot.argmax()) + 1], "overshoot"
        if self.threshold < math.inf:
            stop, reason = self._threshold_stop(qscores, 0, stop, reason)

        examined = errors if stop == len(errors) else errors[:stop]
        best = int(examined.argmin())
        # Python handles answers, repartitioned cells and pruned points
        # in traversal order. There is no answer when the smallest error
        # exceeds delta (a NaN one does not), and then no answer mask.
        # ``space.overshoots`` takes arrays too.
        answer: Any = None
        past: Any = None
        events: Any = ()
        if not examined.item(best) > config.delta:
            answer = errors <= self.delta
        if self.repartitions or self.pruned is not None:
            past = space.overshoots(values, self.target64)
            events = (past if answer is None else answer | past).nonzero()[0]
        elif answer is not None:
            events = answer.nonzero()[0]
        made: dict[int, RefinedQuery] = {}
        candidates: list[tuple[int, RefinedQuery]] = []
        for index in events.tolist() if len(events) else ():
            if index >= stop:
                break
            point = tuple(coords[index].tolist())
            if answer is not None and answer[index]:
                made[index] = self.driver._refined_query(
                    space.query, space, point, values.item(index),
                    errors.item(index),
                    extra_values=tuple(
                        extra.item(index) for extra in extra_values
                    ),
                )
                logger.debug(
                    "answer at %s: A=%g err=%.4f QScore=%.3f",
                    point, values[index], errors[index], qscores[index],
                )
                stop, reason = self._record(
                    made[index], qscores, index, stop, reason
                )
            elif self.repartitions and past[index]:
                candidate = self.driver._repartition(
                    self.explorers[0].prepared, space, point, target,
                    self.error_fn, config, self.stats,
                )
                if candidate is not None:
                    candidates.append((index, candidate))
                    if candidate.error <= config.delta:
                        stop, reason = self._record(
                            candidate, qscores, index, stop, reason
                        )
            if self.pruned is not None and past[index]:
                self.pruned.add(point)
        if stop < len(examined):  # the threshold an answer set ended it
            examined = errors[:stop]
            if best >= stop:
                best = int(examined.argmin())

        self._closest(
            best, coords, qscores, values, examined, extra_values, made,
            candidates,
        )
        self.stats.grid_queries_examined += stop
        self.stats.last_qscore = qscores.item(stop - 1)
        if self.check_overshoot and reason is None:
            last = starts[-2]
            self.layer_key = round(qscores.item(last), LAYER_DECIMALS)
            self.layer_min = minima.item(-1)
        return reason

    def _record(
        self,
        answer: RefinedQuery,
        qscores: np.ndarray,
        index: int,
        stop: int,
        reason: Optional[str],
    ) -> tuple[int, Optional[str]]:
        """Record an answer of the grid point at ``index``; the k-th
        sets the threshold, which may end the batch sooner."""
        self.answers.append(answer)
        self.answer_layers.append(qscores.item(index))
        if self.threshold < math.inf or len(self.answer_layers) < self.config.top_k:
            return stop, reason
        self.threshold = self.answer_layers[self.config.top_k - 1]
        return self._threshold_stop(qscores, index + 1, stop, reason)

    def _threshold_stop(
        self,
        qscores: np.ndarray,
        begin: int,
        stop: int,
        reason: Optional[str],
    ) -> tuple[int, Optional[str]]:
        """The first point from ``begin`` past the threshold ends the
        batch, if it comes no later than ``stop``; the threshold is
        checked first at a layer's top, so it wins a tie."""
        over = qscores[begin:stop + 1] > self.threshold + _LAYER_EPS
        if over.any():
            return begin + int(over.argmax()), "answers"
        return stop, reason

    def _closest(
        self,
        best: int,
        coords: np.ndarray,
        qscores: np.ndarray,
        values: np.ndarray,
        errors: np.ndarray,
        extra_values: list[np.ndarray],
        made: dict[int, RefinedQuery],
        candidates: list[tuple[int, RefinedQuery]],
    ) -> None:
        """Update the closest query with the batch's examined points,
        whose ``errors`` first reach their minimum at ``best``, and its
        repartition candidates.

        The closest is the first examined query with the smallest
        ``(error, qscore)``, compared strictly. QScores never fall
        along the traversal, so ``best`` is the only grid point of the
        batch that can win; it and the candidates, each right after its
        grid point, are compared in traversal order. A NaN error, which
        only a custom error function or distance gives, never compares
        smaller: it is the closest only as the search's first point, and
        then for good. ``argmin`` stops at the first NaN, so ``best``
        holds one if any error is NaN.
        """
        error = errors.item(best)
        if error == error and not candidates:
            rank = (error, qscores.item(best))
            if self.closest_rank is None or rank < self.closest_rank:
                self._set_closest(
                    rank, best, made, coords, values, extra_values
                )
            return
        contender: Optional[int] = best
        if error != error:
            valid = (errors == errors).nonzero()[0]
            if self.closest_rank is None and errors.item(0) != errors.item(0):
                contender = 0
            elif len(valid):
                contender = int(valid[errors[valid].argmin()])
            else:
                contender = None
        contenders = [(index, 1, candidate) for index, candidate in candidates]
        if contender is not None:
            contenders.append((contender, 0, None))
        contenders.sort(key=lambda entry: entry[:2])
        for index, _, candidate in contenders:
            if candidate is None:
                rank = (errors.item(index), qscores.item(index))
            else:
                rank = (candidate.error, candidate.qscore)
            if self.closest_rank is not None and not rank < self.closest_rank:
                continue
            if candidate is None:
                self._set_closest(
                    rank, index, made, coords, values, extra_values
                )
            else:
                self.closest_rank, self.closest = rank, candidate

    def _set_closest(
        self,
        rank: tuple[float, float],
        index: int,
        made: dict[int, RefinedQuery],
        coords: np.ndarray,
        values: np.ndarray,
        extra_values: list[np.ndarray],
    ) -> None:
        """Make the batch's grid point at ``index`` the closest: its
        answer, if it is one, else its lazy description."""
        self.closest_rank = rank
        self.closest = made.get(index) or (
            tuple(coords[index].tolist()),
            values.item(index),
            rank[0],
            tuple(extra.item(index) for extra in extra_values),
        )


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
    chunks: Iterator[LayerArrays],
    space: RefinedSpace,
    pruned: set[tuple[int, ...]],
) -> Iterator[LayerArrays]:
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
    for chunk in chunks:
        points = map(tuple, chunk.coords.tolist())
        for coords, qscore in zip(points, chunk.qscores.tolist()):
            if coords not in reached:
                continue
            yield LayerArrays(
                np.array([coords], dtype=np.intp), np.array([qscore]), [0, 1]
            )
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
