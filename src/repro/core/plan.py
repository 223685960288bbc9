"""Explore-plan selection: a fixed engine, shell reads, or the whole grid.

The driver has two Explore engines with different cost profiles:

* the per-cell engine (:class:`~repro.core.explore.Explorer`, mode
  ``incremental``) — one backend round trip per *visited* cell; total
  work tracks how far the search expands before the constraint is
  met;
* the grid engine (:class:`~repro.core.grid_explore.GridExplorer`) —
  one backend pass per shell of a growing QScore ball (plan
  ``shells``); total work tracks the QScore the search reaches, read in
  geometrically growing steps. Mode ``materialized`` starts the ball as
  the whole grid, so every grid query after the one pass is free.

A fixed ``explore_mode`` runs one of the two. ``auto`` (the default)
reads shells, which go on cell by cell once a ball's bounding box would
exceed ``materialize_cell_cap``. Shells never touch the grid cache, so
``auto`` with a grid cache configured, on a grid under both
``materialize_cell_cap`` and ``max_grid_queries``, runs the whole-grid
ball instead: it reads a warm block tensor with no backend pass and
writes a cold one. No plan depends on a clock or on process-wide
state, and every engine answers like serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.refined_space import RefinedSpace
from repro.exceptions import QueryModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.acquire import AcquireConfig

MODES = ("auto", "incremental", "materialized")


@dataclass(frozen=True)
class ExplorePlan:
    """Outcome of plan selection, recorded for reports and tests.

    Attributes:
        mode: the engine the search starts on — ``incremental``,
            ``materialized`` or ``shells``.
        reason: ``forced`` (a fixed ``explore_mode``), ``auto``
            (``auto`` reading shells) or ``grid-cache`` (``auto`` with
            a grid cache: the whole grid, whose block tensor the cache
            keeps).
        grid_cells: full grid size (``RefinedSpace.grid_size``).
    """

    mode: str
    reason: str
    grid_cells: int


def choose_explore_mode(
    space: RefinedSpace, config: "AcquireConfig"
) -> ExplorePlan:
    """Resolve ``config.explore_mode`` into a concrete plan.

    Fixed modes pass through (``materialized`` validates the grid
    against ``config.materialize_cell_cap`` and raises
    :class:`~repro.exceptions.QueryModelError` when the tensor would
    not fit); ``auto`` reads shells, or the whole grid when a grid
    cache is configured and the grid is under both caps. No sub-query
    executes and the cache is not consulted.
    """
    if config.explore_mode not in MODES:
        raise QueryModelError(
            f"unknown explore_mode: {config.explore_mode!r}; "
            f"expected one of {MODES}"
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
        return ExplorePlan("materialized", "forced", grid_cells)
    if (
        config.grid_cache is None
        or grid_cells > cap
        or grid_cells > config.max_grid_queries
    ):
        return ExplorePlan("shells", "auto", grid_cells)
    return ExplorePlan("materialized", "grid-cache", grid_cells)


__all__ = [
    "ExplorePlan",
    "choose_explore_mode",
]
