"""Explore-plan selection: a fixed engine, or the online switch.

The driver has two Explore engines with different cost profiles:

* the per-cell engine (:class:`~repro.core.explore.Explorer`, mode
  ``incremental``) — one backend round trip per *visited* cell; total
  work tracks how far the search expands before the constraint is
  met;
* the grid engine (:class:`~repro.core.grid_explore.TiledGridExplorer`)
  — one backend pass per *reached* tile; total work tracks the tiles
  the traversal's layer prefix touches. Mode ``materialized`` runs one
  tile as large as the grid, so every grid query after the one pass is
  free; mode ``tiled`` runs tiles under ``materialize_cell_cap`` and
  ``max_grid_queries``, so huge or budget-capped grids never build the
  full-grid tensor.

A fixed ``explore_mode`` runs one of these. ``auto`` (the default)
decides while the search runs, not from an estimate: the search starts
on the per-cell engine, which times its cell round trips. At a layer
boundary, once they have cost as much as one grid pass of this query on
this layer (:func:`switch_due`), the driver hands the remaining layers
to the grid engine: materialized, or tiled when the grid is over
``materialize_cell_cap`` or ``max_grid_queries``. Every engine is
bit-identical to serial, so the switch cannot change an answer. As in
renting skis until the rent paid equals the price of a pair, a search
costs at most about twice the better fixed engine.

A pass costs what the last pass of the same query grid took on the
same layer: the grid engine times each pass, and the driver keeps the
last one in :data:`PASS_TIMES` under the grid cache's target-independent
``blocks`` key, so the sweep points of one constraint share it. Until a
pass has been timed, a pass is taken to cost :data:`COLD_PASS_CELLS`
cell round trips. One shortcut remains: a finished block tensor
already in the grid cache makes ``auto`` start (and stay) on the
materialized engine, which reads it without any backend pass.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Optional

from repro.core.grid_cache import GridTensorCache
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.exceptions import QueryModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.acquire import AcquireConfig
    from repro.core.explore import Explorer
    from repro.engine.backends import EvaluationLayer

#: Cell round trips one grid pass is taken to cost until a pass of the
#: query grid has been timed on its layer.
COLD_PASS_CELLS = 64

#: Pass times kept by :data:`PASS_TIMES`; the least recently used go.
PASS_TIMES_KEPT = 1024

_MODES = ("auto", "incremental", "materialized", "tiled")


class PassTimes:
    """Seconds of the last grid pass, per layer and query grid.

    Keyed by the memory part of the grid cache's ``blocks`` key, which
    names the layer instance and the cells of the query, not its
    target. Bounded (least recently used out past ``capacity``) and
    guarded by a lock, since service workers record and read it
    concurrently.
    """

    def __init__(self, capacity: int = PASS_TIMES_KEPT) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seconds: OrderedDict[Hashable, float] = OrderedDict()

    def get(self, key: Hashable) -> Optional[float]:
        with self._lock:
            return self._seconds.get(key)

    def record(self, key: Hashable, seconds: float) -> None:
        with self._lock:
            self._seconds[key] = seconds
            self._seconds.move_to_end(key)
            while len(self._seconds) > self.capacity:
                self._seconds.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seconds)


#: Process-wide pass times the driver switches by.
PASS_TIMES = PassTimes()


def pass_key(
    layer: "EvaluationLayer", query: Query, space: RefinedSpace
) -> Hashable:
    """The :data:`PASS_TIMES` key of a query grid on a layer."""
    return GridTensorCache.key_for(layer, query, space, kind="blocks").memory


def switch_due(explorer: "Explorer", pass_s: Optional[float]) -> bool:
    """Whether the per-cell engine's round trips have cost one pass.

    ``pass_s`` is the timed pass of this query grid on this layer, or
    None, in which case a pass costs :data:`COLD_PASS_CELLS` round
    trips of the search's own mean cost — a count, so it does not
    depend on timing.
    """
    if pass_s is None:
        return explorer.cells_executed >= COLD_PASS_CELLS
    return explorer.cell_seconds >= pass_s


@dataclass(frozen=True)
class ExplorePlan:
    """Outcome of plan selection, recorded for reports and tests.

    Attributes:
        mode: the engine the search starts on — ``incremental``,
            ``materialized`` or ``tiled``.
        reason: ``forced`` (a fixed ``explore_mode``), ``warm-cache``
            (``auto`` with the block tensor already cached) or
            ``online`` (``auto``: per-cell until the switch).
        grid_cells: full grid size (``RefinedSpace.grid_size``).
        tile_cells: per-tile cell budget of the grid engine the plan
            starts on or switches to — the whole grid for
            ``materialized`` (0 for a forced ``incremental`` plan).
        switch_to: the grid engine an ``online`` plan hands the
            remaining layers to (empty for the other plans).
    """

    mode: str
    reason: str
    grid_cells: int
    tile_cells: int = 0
    switch_to: str = ""


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
    not fit); ``auto`` starts per-cell and names the grid engine it
    may switch to. No sub-query executes.
    """
    if config.explore_mode not in _MODES:
        raise QueryModelError(
            f"unknown explore_mode: {config.explore_mode!r}; "
            f"expected one of {_MODES}"
        )
    grid_cells = space.grid_size
    cap = config.materialize_cell_cap
    if config.explore_mode == "incremental":
        return ExplorePlan("incremental", "forced", grid_cells)
    if config.explore_mode == "materialized":
        if grid_cells > cap:
            raise QueryModelError(
                f"explore_mode='materialized' needs a {grid_cells}-cell "
                f"tensor, over materialize_cell_cap={cap}; raise the cap "
                "or use explore_mode='auto'"
            )
        return ExplorePlan("materialized", "forced", grid_cells, grid_cells)
    # Tiles as large as the tensor cap, the query budget and the grid
    # allow: the fewest seams and backend passes. Under both caps that
    # is the whole grid, the one tile of the materialized plans below.
    tile_cells = max(min(cap, config.max_grid_queries, grid_cells), 1)
    if config.explore_mode == "tiled":
        return ExplorePlan("tiled", "forced", grid_cells, tile_cells)

    # -- auto ----------------------------------------------------------
    if grid_cells > cap or grid_cells > config.max_grid_queries:
        return ExplorePlan(
            "incremental", "online", grid_cells, tile_cells,
            switch_to="tiled",
        )
    grid_cache = config.resolve_grid_cache()
    if grid_cache is not None and grid_cache.contains(
        GridTensorCache.key_for(layer, query, space, kind="blocks")
    ):
        return ExplorePlan("materialized", "warm-cache", grid_cells, tile_cells)
    return ExplorePlan(
        "incremental", "online", grid_cells, tile_cells,
        switch_to="materialized",
    )


__all__ = [
    "COLD_PASS_CELLS",
    "ExplorePlan",
    "PASS_TIMES",
    "PassTimes",
    "choose_explore_mode",
    "pass_key",
    "switch_due",
]
