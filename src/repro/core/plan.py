"""Explore-plan selection: incremental vs materialized vs tiled grids.

The driver has three Explore engines with different cost profiles:

* incremental (:class:`~repro.core.explore.Explorer`) — one backend
  round trip per *visited* cell; total work tracks how far the search
  expands before the constraint is met;
* materialized (:class:`~repro.core.grid_explore.GridExplorer`) — one
  backend pass computes *every* cell, after which grid queries are
  free; total work tracks the full grid size regardless of where the
  search terminates;
* tiled (:class:`~repro.core.grid_explore.TiledGridExplorer`) — one
  backend pass per *reached* tile; total work tracks the tiles the
  traversal's layer prefix touches, so huge or budget-capped grids
  still get batched execution without the full-grid tensor.

``choose_explore_mode`` picks between them from catalog statistics
alone — no sub-query executes during planning. The model (documented
in ``docs/EXPLORE_MODES.md``) prices an incremental cell round trip at
one pass over the data (``N`` rows, the star-join heuristic: the
largest referenced table), materialization at one data pass plus one
unit per grid cell, and tiling at one data pass plus one unit per tile
cell, per reached tile:

    incremental  ~ visited * N
    materialized ~ N + |grid|          (grid within cap and budget)
    tiled        ~ ceil(visited / |tile|) * (N + |tile|)

``visited`` is estimated by walking L1 layers outward, predicting the
aggregate at each layer's balanced point from per-dimension
:class:`~repro.engine.statistics.ColumnStats` selectivities, until the
constraint target is reached; the layer-point counts come from
:meth:`~repro.core.refined_space.RefinedSpace.layer_sizes`. Queries
whose dimensions lack catalog statistics (joins, categorical
predicates, expression predicates, statless backends) fall back to a
small-grid rule: materialize only when the whole grid is trivially
cheap and within the query budget, tile when the grid exceeds the
tensor cap or the budget, and run incrementally otherwise.

The estimate can be *calibrated*: a :class:`PlanCalibration` collects
(estimated, actually-visited) pairs from finished searches and applies
their geometric-mean ratio to later estimates, closing the loop
between the star-join cost heuristic and observed traversal behaviour.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.grid_cache import GridTensorCache
from repro.core.predicate import SelectPredicate
from repro.core.query import ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.engine.expression import ColumnRef
from repro.exceptions import QueryModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.acquire import AcquireConfig
    from repro.engine.backends import EvaluationLayer
    from repro.engine.catalog import Database
    from repro.engine.statistics import ColumnStats

#: Grids at most this many cells are materialized even without
#: statistics — the tensor is cheaper than any bookkeeping about it.
SMALL_GRID_CELLS = 4096

#: Layer-walk horizon for the visited-cells estimate; beyond it the
#: search is treated as exploring the whole grid (capped elsewhere).
_MAX_ESTIMATED_LAYERS = 2048

_MODES = ("auto", "incremental", "materialized", "tiled")


class PlanCalibration:
    """Feedback loop from observed searches into the visited estimate.

    After each search the driver reports the plan's
    ``estimated_visited`` together with the number of grid queries
    actually examined. The geometric mean of the ``actual / estimated``
    ratios over a sliding window becomes a correction factor applied to
    later estimates — systematic over- or under-estimation by the
    star-join heuristic is measured once and compensated thereafter.

    Thread-safe: one instance is shared per workload (the harness) or
    per service (:class:`repro.service.AcquireService`), where
    concurrent searches feed observations and read corrections at the
    same time. All window access happens under an internal lock.
    """

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise QueryModelError(
                f"calibration window must be >= 1, got {window}"
            )
        self._lock = threading.Lock()
        self._log_ratios: deque[float] = deque(maxlen=window)

    def observe(self, estimated: int, actual: int) -> None:
        """Record one (estimate, outcome) pair; zeros are ignored."""
        if estimated > 0 and actual > 0:
            with self._lock:
                self._log_ratios.append(math.log(actual / estimated))

    @property
    def observations(self) -> int:
        with self._lock:
            return len(self._log_ratios)

    def factor(self) -> float:
        """Geometric-mean correction factor (1.0 until observations)."""
        with self._lock:
            if not self._log_ratios:
                return 1.0
            return math.exp(sum(self._log_ratios) / len(self._log_ratios))

    def correct(self, estimate: int) -> int:
        """Apply the correction factor to a raw visited estimate."""
        return max(int(round(estimate * self.factor())), 1)


@dataclass(frozen=True)
class ExplorePlan:
    """Outcome of plan selection, recorded for reports and tests.

    Attributes:
        mode: the engine chosen — ``incremental``, ``materialized`` or
            ``tiled``.
        reason: short human-readable justification (``forced``,
            ``grid-over-cap``, ``grid-over-budget``, ``cost-model``,
            ``small-grid``, ...).
        grid_cells: full grid size (``RefinedSpace.grid_size``).
        estimated_visited: predicted visited-cell count for the
            incremental engine (after calibration, when configured);
            0 when no estimate was possible.
        tile_cells: per-tile cell budget picked for a tiled plan (0
            for non-tiled plans).
    """

    mode: str
    reason: str
    grid_cells: int
    estimated_visited: int = 0
    tile_cells: int = 0


def choose_explore_mode(
    layer: "EvaluationLayer",
    query: Query,
    space: RefinedSpace,
    config: "AcquireConfig",
) -> ExplorePlan:
    """Resolve ``config.explore_mode`` into a concrete plan.

    Fixed modes pass through (``materialized`` validates the grid
    against ``config.materialize_cell_cap`` and raises
    :class:`~repro.exceptions.QueryModelError` when the tensor would
    not fit); ``auto`` applies the cost model above.
    """
    if config.explore_mode not in _MODES:
        raise QueryModelError(
            f"unknown explore_mode: {config.explore_mode!r}; "
            f"expected one of {_MODES}"
        )
    grid_cells = space.grid_size
    database = getattr(layer, "database", None)
    rows = (
        _largest_table_rows(database, query) if database is not None else 1
    )

    def tiled_plan(reason: str, visited: int = 0) -> ExplorePlan:
        tile_cells, _ = _pick_tile_plan(config, visited, grid_cells, rows)
        return ExplorePlan(
            "tiled", reason, grid_cells, visited, tile_cells=tile_cells
        )

    if config.explore_mode == "incremental":
        return ExplorePlan("incremental", "forced", grid_cells)
    if config.explore_mode == "materialized":
        if grid_cells > config.materialize_cell_cap:
            raise QueryModelError(
                f"explore_mode='materialized' needs a {grid_cells}-cell "
                f"tensor, over materialize_cell_cap="
                f"{config.materialize_cell_cap}; raise the cap or use "
                "explore_mode='auto'"
            )
        return ExplorePlan("materialized", "forced", grid_cells)
    if config.explore_mode == "tiled":
        return tiled_plan("forced")

    # -- auto ----------------------------------------------------------
    budget = config.max_grid_queries
    cap = config.materialize_cell_cap
    materialized_fits = grid_cells <= cap and grid_cells <= budget

    # Warm tiers beat every cost estimate: a finished block tensor in
    # the cache (memory or persistent) makes the materialized engine a
    # pure lookup — no backend pass, no prefix passes.
    resolver = getattr(config, "resolve_grid_cache", None)
    grid_cache = (
        resolver() if callable(resolver)
        else getattr(config, "grid_cache", None)
    )
    if grid_cache is not None and materialized_fits:
        blocks_key = GridTensorCache.key_for(
            layer, query, space, kind="blocks"
        )
        if grid_cache.contains(blocks_key):
            return ExplorePlan("materialized", "warm-cache", grid_cells)

    estimate = _estimate_visited_cells(database, query, space, config)
    if estimate is None:
        if grid_cells <= SMALL_GRID_CELLS and materialized_fits:
            return ExplorePlan("materialized", "small-grid", grid_cells)
        if grid_cells > cap:
            return tiled_plan("grid-over-cap")
        if grid_cells > budget:
            return tiled_plan("grid-over-budget")
        return ExplorePlan("incremental", "no-statistics", grid_cells)

    calibration = getattr(config, "calibration", None)
    if calibration is not None:
        estimate = calibration.correct(estimate)
    visited = min(estimate, grid_cells, budget)

    # Cost of each engine, in row-access units (docstring formulas).
    incremental_cost = visited * rows
    materialized_cost = rows + grid_cells
    tile_cells, tiled_cost = _pick_tile_plan(
        config, visited, grid_cells, rows
    )

    best_mode, best_cost = "incremental", incremental_cost
    if tiled_cost < best_cost:
        best_mode, best_cost = "tiled", tiled_cost
    # Prefer the simpler whole-grid tensor over tiles on equal cost,
    # but keep the historical strict comparison against incremental.
    if (
        materialized_fits
        and materialized_cost < incremental_cost
        and materialized_cost <= best_cost
    ):
        best_mode, best_cost = "materialized", materialized_cost
    if best_mode != "tiled":
        return ExplorePlan(best_mode, "cost-model", grid_cells, visited)
    reason = "cost-model"
    if grid_cells > cap:
        reason = "grid-over-cap"
    elif grid_cells > budget:
        reason = "grid-over-budget"
    return ExplorePlan(
        "tiled", reason, grid_cells, visited, tile_cells=tile_cells
    )


# ----------------------------------------------------------------------
# Tiled-plan sizing
# ----------------------------------------------------------------------
def _pick_tile_plan(
    config: "AcquireConfig",
    visited: int,
    grid_cells: int,
    rows: int,
) -> tuple[int, int]:
    """Tile size and cost of a tiled plan: ``(tile_cells, cost)``.

    Tiles are as large as the tensor cap, the query budget and the grid
    allow (fewest seams and backend passes); the search then reaches
    ``ceil(visited / tile_cells)`` of them, each costing one data pass
    plus one unit per tile cell.
    """
    tile_cells = max(
        min(config.materialize_cell_cap, config.max_grid_queries,
            grid_cells),
        1,
    )
    tiles = -(-max(int(visited), 1) // tile_cells)
    return tile_cells, tiles * (rows + tile_cells)


# ----------------------------------------------------------------------
# Estimation helpers
# ----------------------------------------------------------------------
def _largest_table_rows(database: "Database", query: Query) -> int:
    """Star-join heuristic: price a data pass at the fact-table size."""
    rows = 1
    for name in query.tables:
        if database.has_table(name):
            rows = max(rows, len(database.table(name)))
    return rows


def _dimension_stats(
    database: "Database", space: RefinedSpace
) -> Optional[list[tuple[SelectPredicate, "ColumnStats"]]]:
    """Per-dimension (predicate, stats) pairs, or None if any dimension
    is not a bare-column select predicate with catalog statistics."""
    pairs = []
    for predicate in space.dims:
        if not isinstance(predicate, SelectPredicate):
            return None
        expr = predicate.expr
        if not isinstance(expr, ColumnRef):
            return None
        if not database.has_table(expr.table):
            return None
        if not database.table(expr.table).schema.has_column(expr.column):
            return None
        stats = database.column_stats(expr.table, expr.column)
        if math.isnan(stats.min_value) or stats.count == 0:
            return None
        pairs.append((predicate, stats))
    return pairs


def _admitted_fraction(
    predicate: SelectPredicate, stats: "ColumnStats", score: float
) -> float:
    """Estimated fraction of the column admitted at PScore ``score``."""
    interval = predicate.interval_at(score)
    above = (
        stats.selectivity_below(interval.lo) if math.isfinite(interval.lo)
        else 0.0
    )
    below = (
        stats.selectivity_below(interval.hi) if math.isfinite(interval.hi)
        else 1.0
    )
    return max(below - above, 0.0)


def _estimate_visited_cells(
    database: Optional["Database"],
    query: Query,
    space: RefinedSpace,
    config: "AcquireConfig",
) -> Optional[int]:
    """Predict how many cells the incremental search visits.

    Walks L1 layers outward; layer ``k``'s balanced point has PScore
    ``(k / d) * step`` on every dimension, and the aggregate there is
    predicted under attribute-value independence as ``mass * prod(f_i)``
    with ``mass`` the aggregate's whole-domain value (row count for
    COUNT, column total for SUM). The first layer predicted to reach
    the constraint target terminates the search; its cumulative point
    count is the estimate. Returns None when the query's shape defeats
    estimation (see :func:`_dimension_stats`).
    """
    if database is None:
        return None
    constraint = query.constraint
    if constraint.op not in (
        ConstraintOp.EQ, ConstraintOp.GE, ConstraintOp.GT
    ):
        return None
    aggregate = constraint.spec.aggregate
    if aggregate.name not in ("COUNT", "SUM"):
        return None
    pairs = _dimension_stats(database, space)
    if pairs is None:
        return None
    if aggregate.name == "COUNT":
        mass = float(_largest_table_rows(database, query))
    else:
        attribute = constraint.spec.attribute
        if not isinstance(attribute, ColumnRef):
            return None
        if not database.has_table(attribute.table):
            return None
        stats = database.column_stats(attribute.table, attribute.column)
        if math.isnan(stats.total):
            return None
        mass = stats.total
    if mass <= 0:
        return None

    # An equality query predicted to overshoot at the origin is handed
    # to the contraction extension before any expansion happens —
    # materializing the expansion grid for it would be pure waste.
    if constraint.op is ConstraintOp.EQ:
        origin = _predicted_value(mass, pairs, 0.0)
        if origin > constraint.target * (1 + config.delta):
            return 1

    max_layers = min(sum(space.max_coords), _MAX_ESTIMATED_LAYERS)
    terminal = None
    for k in range(max_layers + 1):
        score = (k / space.d) * space.step
        if _predicted_value(mass, pairs, score) >= constraint.target:
            terminal = k
            break
    if terminal is None:
        return space.grid_size
    counts = space.layer_sizes(terminal)
    return sum(counts)


def _predicted_value(
    mass: float,
    pairs: Sequence[tuple[SelectPredicate, "ColumnStats"]],
    score: float,
) -> float:
    value = mass
    for predicate, stats in pairs:
        capped = score
        if predicate.limit is not None:
            capped = min(capped, predicate.limit)
        value *= _admitted_fraction(predicate, stats, capped)
    return value


__all__ = [
    "ExplorePlan",
    "PlanCalibration",
    "choose_explore_mode",
    "SMALL_GRID_CELLS",
]
