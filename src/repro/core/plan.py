"""Explore-plan selection: a fixed engine, or shell reads.

The driver has three Explore engines with different cost profiles:

* the per-cell engine (:class:`~repro.core.explore.Explorer`, mode
  ``incremental``) — one backend round trip per *visited* cell; total
  work tracks how far the search expands before the constraint is
  met;
* the tile engine (:class:`~repro.core.grid_explore.TiledGridExplorer`)
  — one backend pass per *reached* tile; total work tracks the tiles
  the traversal's layer prefix touches. Mode ``materialized`` runs one
  tile as large as the grid, so every grid query after the one pass is
  free; mode ``tiled`` runs tiles under ``materialize_cell_cap`` and
  ``max_grid_queries``, so huge or budget-capped grids never build the
  full-grid tensor;
* the shell engine (:class:`~repro.core.grid_explore.ShellGridExplorer`,
  plan ``shells``) — one backend pass per shell of a growing QScore
  ball; total work tracks the QScore the search reaches, read in
  geometrically growing steps.

A fixed ``explore_mode`` runs one of the first two. ``auto`` (the
default) runs the shell engine, which hands its reads to tiles when a
ball's bounding box would exceed ``materialize_cell_cap``. Shells never
touch the grid cache, so ``auto`` with a grid cache configured runs the
whole-grid engine instead — materialized, or tiled over the caps —
which reads a warm block tensor with no backend pass and writes a cold
one. No plan depends on a clock or on process-wide state, and every
engine answers like serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.refined_space import RefinedSpace
from repro.exceptions import QueryModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.acquire import AcquireConfig

_MODES = ("auto", "incremental", "materialized", "tiled")


@dataclass(frozen=True)
class ExplorePlan:
    """Outcome of plan selection, recorded for reports and tests.

    Attributes:
        mode: the engine the search runs on — ``incremental``,
            ``materialized``, ``tiled`` or ``shells``.
        reason: ``forced`` (a fixed ``explore_mode``), ``auto``
            (``auto`` without a grid cache: shell reads) or
            ``grid-cache`` (``auto`` with a grid cache: the whole-grid
            engine, whose block tensors the cache keeps).
        grid_cells: full grid size (``RefinedSpace.grid_size``).
        tile_cells: per-tile cell budget of the tile engine the plan
            runs or a shell plan hands over to — the whole grid for
            ``materialized`` (0 for a forced ``incremental`` plan).
    """

    mode: str
    reason: str
    grid_cells: int
    tile_cells: int = 0


def choose_explore_mode(
    space: RefinedSpace, config: "AcquireConfig"
) -> ExplorePlan:
    """Resolve ``config.explore_mode`` into a concrete plan.

    Fixed modes pass through (``materialized`` validates the grid
    against ``config.materialize_cell_cap`` and raises
    :class:`~repro.exceptions.QueryModelError` when the tensor would
    not fit); ``auto`` reads shells, or the whole grid when a grid
    cache is configured. No sub-query executes and the cache is not
    consulted.
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
    if config.resolve_grid_cache() is None:
        return ExplorePlan("shells", "auto", grid_cells, tile_cells)
    if grid_cells > cap or grid_cells > config.max_grid_queries:
        return ExplorePlan("tiled", "grid-cache", grid_cells, tile_cells)
    return ExplorePlan("materialized", "grid-cache", grid_cells, tile_cells)


__all__ = [
    "ExplorePlan",
    "choose_explore_mode",
]
