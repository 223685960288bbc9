"""Grid Explore: seam-stitched tiles of the cell grid + prefix passes.

The incremental Explore (:mod:`repro.core.explore`) pays one backend
round trip per visited cell. For dense searches a whole box of the
cell tensor can be computed in a *single* backend pass
(:meth:`~repro.engine.backends.EvaluationLayer.execute_grid_tile`),
after which the Eq. 17 recurrence

    O_i(u) = O_{i-1}(u) + O_i(u - e_{i-1})

collapses into d axis-wise cumulative-combine passes over the tensor:
pass ``i`` replaces each line along axis ``i`` with its running
combine, turning cell states into block (full-query) states. Every
later grid query is then an O(1) in-memory lookup.

Bit-identity with the serial :class:`~repro.core.explore.Explorer`:
unrolled along one axis the recurrence is a left fold
``combine(current, accumulated)``; ``np.cumsum`` /
``np.maximum.accumulate`` compute the same fold with the operands
commuted (``accumulated + current``), and IEEE addition, min and max
are commutative — so every intermediate value is identical bit for
bit. User-defined OSP aggregates make no commutativity promise, so
they take a generic Python fold that preserves the serial operand
order exactly.

One engine, :class:`TiledGridExplorer`, partitions the grid into
axis-aligned rectangular tiles (the cartesian product of per-axis
coordinate intervals) and materializes each on demand. The prefix
passes run per tile with *seam carries*: after pass ``a`` over a
tile, its last slab along axis ``a`` (the stage-``a+1`` values at the
tile's upper boundary) is captured; the neighbouring tile one step up
along axis ``a`` folds that slab into its first slab before running its
own pass ``a``. Because the resulting per-line association chain is
exactly the full-grid chain, tiled block states are bit-identical to
the serial engine whatever the tile shape. A tile's carries come from
its componentwise-predecessor tiles, so materializing the down-set
``{t' : t' <= t}`` in lexicographic order satisfies every dependency.
The materialized mode is the one-tile case: a tile as large as the
grid (:class:`GridExplorer` is that preset), so one backend pass and
no seams.

:class:`ShellGridExplorer` serves ``explore_mode='auto'``: it reads
only the cells the traversal's QScore order has reached, in growing
QScore balls, one backend pass per shell of the ball, and reruns the
prefix passes over the ball's bounding box.

The tiled engine optionally consults a
:class:`~repro.core.grid_cache.GridTensorCache`, at two granularities:
raw *cell* tensors (kind ``"cells"``), so constraint sweeps re-use the
expensive backend pass; and finished *block* tensors plus tile seam
slabs (kinds ``"blocks"`` / ``"seam<axis>"``), so a warm replay skips
Explore entirely — no backend pass *and* no prefix passes. With a
persistent cache tier the block tensors survive across processes.

See ``docs/EXPLORE_MODES.md`` for the mode contract and when the
driver picks each path.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.aggregates import (
    AggState,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    OSPAggregate,
    SumAggregate,
)
from repro.core.grid_cache import GridTensorCache
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import EvaluationLayer, PreparedQuery
from repro.exceptions import SearchError

Coords = tuple[int, ...]

#: axis -> carry slab (the neighbour tile's seam along that axis).
Carries = dict[int, np.ndarray]


class TiledGridExplorer:
    """Explore engine over on-demand, seam-stitched grid tiles.

    Exposes the same ``compute_aggregate`` / ``block_state`` / counter
    interface as :class:`~repro.core.explore.Explorer`, so the ACQUIRE
    driver, its budget accounting and the repartitioning step work
    unchanged. Only tiles the traversal actually reaches (plus their
    componentwise-predecessor down-set, needed for seam carries) are
    ever computed, so a search that stops after a few layers — or is
    truncated by ``max_grid_queries`` — never pays for the far corner
    of the grid. A tile as large as the grid is the materialized mode.

    Args:
        layer: evaluation layer; tiles go through
            :meth:`~repro.engine.backends.EvaluationLayer.execute_grid_tile`.
        prepared: backend-prepared state for the query.
        space: the refined space grid.
        aggregate: the constraint's OSP aggregate.
        max_tile_cells: soft per-tile cell budget; the tile shape is
            derived from it via :func:`tile_shape_for`.
        tile_shape: explicit per-axis tile widths, overriding
            ``max_tile_cells`` (used by tests to force seams through
            specific layers).
        cache: optional cross-query tensor cache; cell tensors are
            keyed by their ``(lo, hi)`` box and finished block/seam
            tensors by the same box under distinct kinds, so replays
            hit tile by tile — a block hit skips the tile's backend
            pass and its prefix passes. Misses are single-flighted.

    ``cells_executed`` counts the cells of tiles fetched from the
    backend; ``cells_skipped`` stays 0 — the bitmap index is pointless
    here because emptiness falls out of the same pass.
    """

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
        max_tile_cells: int = 65536,
        tile_shape: Optional[Sequence[int]] = None,
        cache: Optional[GridTensorCache] = None,
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.cache = cache
        if tile_shape is None:
            self.tile_shape: Coords = tile_shape_for(space, max_tile_cells)
        else:
            widths = tuple(int(width) for width in tile_shape)
            if len(widths) != space.d or any(w < 1 for w in widths):
                raise SearchError(
                    f"tile shape {widths} invalid for a {space.d}-d space"
                )
            self.tile_shape = widths
        self._tile_counts = tuple(
            -(-(limit + 1) // width)
            for limit, width in zip(space.max_coords, self.tile_shape)
        )
        self._one_tile = all(count == 1 for count in self._tile_counts)
        self.cells_executed = 0
        self.cells_skipped = 0
        self.tiles_materialized = 0
        self.tiles_restored = 0
        self._blocks: dict[Coords, np.ndarray] = {}
        self._seams: dict[tuple[Coords, int], np.ndarray] = {}

    # -- Explorer interface --------------------------------------------
    def compute_aggregate(self, coords: Sequence[int]) -> float:
        """Finalized aggregate value of the grid query at ``coords``."""
        return self.aggregate.finalize(self.block_state(coords))

    def compute_aggregates(
        self, coords_list: Sequence[Sequence[int]]
    ) -> Iterator[float]:
        """Finalized aggregate values of a layer's grid queries, lazily.

        Over several tiles each point is read as it is pulled, so only
        the tiles the driver reaches materialize. A grid of one tile is
        read with one fancy-index gather when the first point is
        pulled; the gathered states are the same Python floats (or
        state tuples) that ``block_state`` reads, so each value equals
        ``compute_aggregate`` bit for bit.
        """
        if not self._one_tile:
            yield from map(self.compute_aggregate, coords_list)
            return
        points = np.asarray(coords_list, dtype=np.intp).reshape(
            -1, self.space.d
        )
        states = self._ensure_tile((0,) * self.space.d)[tuple(points.T)]
        if states.dtype != object:
            states = map(tuple, states.tolist())
        yield from map(self.aggregate.finalize, states)

    def block_state(self, coords: Sequence[int]) -> AggState:
        """Aggregate state of the full query at ``coords`` (``O_{d+1}``)."""
        key = tuple(int(coord) for coord in coords)
        tile = tuple(c // w for c, w in zip(key, self.tile_shape))
        blocks = self._ensure_tile(tile)
        local = tuple(
            c - t * w for c, t, w in zip(key, tile, self.tile_shape)
        )
        if blocks.dtype == object:
            return blocks[local]
        return tuple(float(value) for value in blocks[local])

    def prime_cells(self, coords_list: Sequence[Sequence[int]]) -> int:
        """No-op: tiles materialize when a read reaches them."""
        return 0

    # -- tiling --------------------------------------------------------
    def tile_bounds(self, tile: Sequence[int]) -> tuple[Coords, Coords]:
        """Inclusive ``(lo, hi)`` coordinate box of a tile index."""
        lo = tuple(t * w for t, w in zip(tile, self.tile_shape))
        hi = tuple(
            min(low + width - 1, limit)
            for low, width, limit in zip(
                lo, self.tile_shape, self.space.max_coords
            )
        )
        return lo, hi

    def _ensure_tile(self, target: Coords) -> np.ndarray:
        """The block tensor of ``target``, installing its down-set first.

        Seam carries chain through every componentwise predecessor, so
        a tile needs its down-set ``{t' : t' <= t}``; lexicographic
        order puts ``t - e_a`` before ``t``. Every thread takes tiles
        in that one order and leads at most one block flight at a
        time, so racing explorers cannot deadlock.
        """
        blocks = self._blocks.get(target)
        if blocks is None:
            for tile in itertools.product(*(range(t + 1) for t in target)):
                if tile not in self._blocks:
                    self._install_tile(tile)
            blocks = self._blocks[target]
        return blocks

    def _install_tile(self, tile: Coords) -> None:
        """Restore a tile from the block cache, or materialize it.

        The block lookup is single-flighted: the leader of a cold tile
        materializes it and puts its seams before completing the
        flight, so the threads parked on it adopt the blocks and find
        the seams. A pass that raises aborts the flight, and the
        parked threads contend to lead.
        """
        key = flight = None
        if self.cache is not None:
            key = self._tile_key(tile, "blocks")
            blocks, tier, flight = self.cache.lookup_or_lead(key)
            if flight is None and self._restore_tile(tile, blocks, tier):
                return
        try:
            blocks = self._materialize_tile(tile)
        except BaseException:
            if flight is not None:
                self.cache.abort_flight(key)
            raise
        if flight is not None:
            blocks = self.cache.complete_flight(key, blocks)
        elif key is not None:
            blocks = self.cache.put(key, blocks)
        self._blocks[tile] = blocks

    def _tile_key(self, tile: Coords, kind: str):
        lo, hi = self.tile_bounds(tile)
        return GridTensorCache.key_for(
            self.layer, self.prepared.query, self.space, lo, hi, kind=kind
        )

    def _seam_axes(self, tile: Coords) -> list[int]:
        """Axes along which a successor tile needs this tile's seam."""
        return [
            axis for axis in range(self.space.d)
            if tile[axis] + 1 < self._tile_counts[axis]
        ]

    def _restore_tile(
        self, tile: Coords, blocks: np.ndarray, tier: Optional[str]
    ) -> bool:
        """Install a cached block tensor with its seam slabs.

        Succeeds only when every seam slab a successor tile could need
        is cached too — a partial hit is treated as a miss so stitching
        never sees half a tile.
        """
        nbytes = int(blocks.nbytes)
        seams: Carries = {}
        for axis in self._seam_axes(tile):
            seam, _ = self.cache.lookup(self._tile_key(tile, f"seam{axis}"))
            if seam is None:
                return False
            seams[axis] = seam
            nbytes += int(seam.nbytes)
        self._blocks[tile] = blocks
        for axis, seam in seams.items():
            self._seams[(tile, axis)] = seam
        self.layer.count_cache_event(
            True, nbytes, persistent=tier == "persistent", block=True
        )
        self.tiles_restored += 1
        return True

    def _materialize_tile(self, tile: Coords) -> np.ndarray:
        """Fetch a tile's cells, stitch them to the seams of its lower
        neighbours, and return its block tensor; its own seams are
        stored (and cached) for the tiles above it."""
        tensor = self._fetch_tile(*self.tile_bounds(tile))
        carries: Carries = {}
        for axis in range(self.space.d):
            if tile[axis] > 0:
                neighbour = (
                    tile[:axis] + (tile[axis] - 1,) + tile[axis + 1:]
                )
                carries[axis] = self._seams[(neighbour, axis)]
        blocks, seams = tile_prefix_combine(tensor, self.aggregate, carries)
        for axis in self._seam_axes(tile):
            seam = seams[axis]
            if self.cache is not None:
                key = self._tile_key(tile, f"seam{axis}")
                seam = self.cache.put(key, seam)
            self._seams[(tile, axis)] = seam
        self.tiles_materialized += 1
        return blocks

    def _fetch_tile(self, lo: Coords, hi: Coords) -> np.ndarray:
        """The cell tensor of the box ``[lo, hi]``, from the cache or
        from one backend pass.

        Misses are single-flighted through the cache, so N threads
        missing the same box execute exactly one backend pass; a pass
        that raises aborts the flight so parked threads retry instead
        of waiting forever.
        """
        key = flight = None
        if self.cache is not None:
            key = GridTensorCache.key_for(
                self.layer, self.prepared.query, self.space, lo, hi
            )
            cached, tier, flight = self.cache.lookup_or_lead(key)
            if cached is not None:
                self.layer.count_cache_event(
                    True, int(cached.nbytes), persistent=tier == "persistent"
                )
                return cached
        try:
            tensor = self.layer.execute_grid_tile(
                self.prepared, self.space, lo, hi
            )
        except BaseException:
            if flight is not None:
                self.cache.abort_flight(key)
            raise
        if flight is not None:
            tensor = self.cache.complete_flight(key, tensor)
            self.layer.count_cache_event(False)
        self.cells_executed += math.prod(tensor.shape[:-1])
        return tensor


class GridExplorer(TiledGridExplorer):
    """The materialized engine: one tile as large as the grid.

    The driver builds :class:`TiledGridExplorer` for every grid plan;
    this preset fixes the tile shape to the grid extents for callers
    that want the whole grid in one backend pass.
    """

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
        cache: Optional[GridTensorCache] = None,
    ) -> None:
        extents = [limit + 1 for limit in space.max_coords]
        super().__init__(
            layer, prepared, space, aggregate, tile_shape=extents, cache=cache
        )


#: Each ball bound is this multiple of the one before, unless the layer
#: the driver reads lies further out. Every shell pays a fixed cost per
#: backend pass (a few ms of SQLite join set-up on the Fig 8 query), so
#: the bounds grow geometrically; the expected-cost optimum of such a
#: search lies near e, and the fixed cost pushes it up.
BALL_GROWTH = 3.0

#: Relative slack on every ball bound, the precision the driver's layers
#: round QScores to (``LAYER_DECIMALS`` = 9 places): a bound built from
#: growth factors, like ``3 * 3 * (10 / 3)``, may fall an ulp below the
#: QScore of the layer it nominally reaches.
BOUND_SLACK = 1e-9


class ShellGridExplorer:
    """Explore engine over a QScore ball grown one backend pass a shell.

    The traversal reads grid queries in non-decreasing QScore, and a
    QScore never falls as a coordinate grows, so the down-set of a grid
    query with QScore <= ``B`` (every cell its block state folds) lies
    in the ball ``{cell QScore <= B}``. The engine keeps the cell tensor
    of the ball over its bounding box ``[0, hi]``, with the identity
    state in the box's cells outside the ball, and that box's block
    tensor from :func:`tile_prefix_combine`. Inside the ball each block
    state equals the materialized engine's: the same cell states fold
    in the same order.

    When the driver reads a layer past ``B``, one backend pass
    (``execute_grid_tile(..., shell=(B, B_next))``) fetches the cells
    whose QScore lies in ``(B, B_next]`` over the next ball's bounding
    box, and the prefix passes rerun over that box. ``B_next`` is
    :data:`BALL_GROWTH` times ``B`` (the smallest first-step QScore of
    an axis to begin with), or the layer's QScore when that is larger,
    clamped at the grid's largest QScore and widened by
    :data:`BOUND_SLACK`. Cell QScores come from
    :meth:`~repro.core.refined_space.RefinedSpace.grid_qscores`, the
    function every backend's shell filter uses.

    A ball whose bounding box would hold more than ``cell_cap`` cells is
    never allocated: that read and every later one go to a
    :class:`TiledGridExplorer` with tiles of ``tile_cells`` cells.
    Shells never touch a grid cache.

    ``cells_executed`` counts the ball's cells (and the tiles' after a
    handover).
    """

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
        cell_cap: int,
        tile_cells: int,
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.cell_cap = cell_cap
        self.tile_cells = tile_cells
        self.bound: Optional[float] = None
        self.cells_skipped = 0
        self.tiled: Optional[TiledGridExplorer] = None
        self._ball_cells = 0
        self._hi: Coords = ()
        self._cells: Optional[np.ndarray] = None
        self._blocks: Optional[np.ndarray] = None
        origin = space.origin
        # Each axis' QScores bound the ball's box along that axis.
        self._axes = [
            space.box_qscores(
                origin, origin[:axis] + (limit,) + origin[axis + 1:]
            ).ravel()
            for axis, limit in enumerate(space.max_coords)
        ]
        self._max_qscore = float(
            space.box_qscores(space.max_coords, space.max_coords).item()
        )

    @property
    def cells_executed(self) -> int:
        tiled = 0 if self.tiled is None else self.tiled.cells_executed
        return self._ball_cells + tiled

    @property
    def mode(self) -> str:
        """``shells``, or ``tiled`` once the reads went to tiles."""
        return "shells" if self.tiled is None else "tiled"

    # -- Explorer interface --------------------------------------------
    def compute_aggregate(self, coords: Sequence[int]) -> float:
        """Finalized aggregate value of the grid query at ``coords``."""
        return self.aggregate.finalize(self.block_state(coords))

    def compute_aggregates(
        self, coords_list: Sequence[Sequence[int]]
    ) -> Iterator[float]:
        """Finalized aggregate values of a layer's grid queries, lazily.

        The first pull grows the ball over every point of the layer (one
        shell at most) and gathers them with one fancy index; the
        gathered states are the Python floats (or state tuples)
        ``block_state`` reads.
        """
        points = np.asarray(coords_list, dtype=np.intp).reshape(
            -1, self.space.d
        )
        if not len(points):
            return
        self._reach(points)
        if self.tiled is not None:
            yield from self.tiled.compute_aggregates(coords_list)
            return
        states = self._blocks[tuple(points.T)]
        if states.dtype != object:
            states = map(tuple, states.tolist())
        yield from map(self.aggregate.finalize, states)

    def block_state(self, coords: Sequence[int]) -> AggState:
        """Aggregate state of the full query at ``coords`` (``O_{d+1}``)."""
        key = tuple(int(coord) for coord in coords)
        self._reach(np.array([key], dtype=np.intp))
        if self.tiled is not None:
            return self.tiled.block_state(key)
        if self._blocks.dtype == object:
            return self._blocks[key]
        return tuple(float(value) for value in self._blocks[key])

    # -- the ball ------------------------------------------------------
    def _reach(self, points: np.ndarray) -> None:
        """Grow the ball by one shell to hold ``points`` (an ``(n, d)``
        array), unless it holds them already or reads go to tiles."""
        if self.tiled is not None:
            return
        qscore = float(self.space.grid_qscores(points.T).max())
        if self.bound is not None and qscore <= self.bound:
            return
        if self.bound is None:
            first = [float(axis[1]) for axis in self._axes if len(axis) > 1]
            bound = max(min(first, default=0.0), qscore)
        else:
            bound = max(self.bound * BALL_GROWTH, qscore)
        bound = min(bound, self._max_qscore) * (1.0 + BOUND_SLACK)
        hi = tuple(
            int(np.searchsorted(axis, bound, side="right")) - 1
            for axis in self._axes
        )
        if math.prod(high + 1 for high in hi) > self.cell_cap:
            self.tiled = TiledGridExplorer(
                self.layer, self.prepared, self.space, self.aggregate,
                max_tile_cells=self.tile_cells,
            )
            return
        lower = -math.inf if self.bound is None else self.bound
        origin = self.space.origin
        cells = self.layer.execute_grid_tile(
            self.prepared, self.space, origin, hi, shell=(lower, bound)
        )
        qscores = self.space.box_qscores(origin, hi)
        if self._cells is not None:
            # The earlier ball's cells keep their states.
            box = tuple(slice(0, high + 1) for high in self._hi)
            ball = qscores[box] <= self.bound
            cells[box][ball] = self._cells[ball]
        self._blocks, _ = tile_prefix_combine(cells, self.aggregate)
        self._cells, self._hi = cells, hi
        self._ball_cells += int(
            np.count_nonzero((qscores > lower) & (qscores <= bound))
        )
        self.bound = bound


def tile_shape_for(space: RefinedSpace, max_tile_cells: int) -> Coords:
    """Per-axis tile widths with at most ``max_tile_cells`` per tile.

    Starts from the full extent and repeatedly halves the widest axis —
    keeping tiles as chunky (seam-light) as the budget allows while
    staying deterministic.
    """
    cap = max(int(max_tile_cells), 1)
    widths = [limit + 1 for limit in space.max_coords]
    while math.prod(widths) > cap:
        axis = max(range(len(widths)), key=lambda a: widths[a])
        if widths[axis] == 1:
            break
        widths[axis] = max(widths[axis] // 2, 1)
    return tuple(widths)


# ---------------------------------------------------------------------------
# Prefix passes


def tile_prefix_combine(
    tensor: np.ndarray,
    aggregate: OSPAggregate,
    carries: Optional[Carries] = None,
) -> tuple[np.ndarray, Carries]:
    """Prefix passes over one tile, stitched to its neighbours.

    ``carries[a]`` is the stage-``a+1`` seam slab of the tile one step
    down along axis ``a`` (shape: this tile's cross-section orthogonal
    to ``a``). Before the cumulative pass along ``a``, the carry is
    folded into the tile's first slab — for the vectorized aggregates
    via the same commutative IEEE op the accumulate uses, for generic
    aggregates via ``combine(current, accumulated)`` — which reproduces
    the full-grid association chain exactly, so results are bit-
    identical to one pass over the whole grid (no carries). The blocks
    of a user-defined aggregate are an object array of state tuples.

    Returns ``(blocks, seams)``: the tile's block tensor and, per axis,
    the seam slab captured right after that axis' pass (i.e. the carry
    the next tile up along that axis needs). The input tensor and the
    carry slabs are never written.
    """
    carries = carries or {}
    ops = _vector_ops(aggregate)
    if ops is None:
        return _generic_tile_prefix_combine(tensor, aggregate, carries)
    accumulate, merge = ops
    work = np.array(tensor, dtype=np.float64, copy=True)
    seams: Carries = {}
    for axis in range(work.ndim - 1):
        carry = carries.get(axis)
        if carry is not None:
            first = work[(slice(None),) * axis + (0,)]
            merge(first, carry, out=first)
        accumulate(work, axis)
        seams[axis] = work[(slice(None),) * axis + (-1,)].copy()
    return work, seams


def _vector_ops(aggregate: OSPAggregate):
    """(in-place accumulate, binary merge ufunc) for built-in aggregates.

    None for aggregates without a commutative vectorized form — they
    take the generic object-array fold.
    """
    if isinstance(aggregate, (CountAggregate, SumAggregate, AvgAggregate)):
        return (lambda a, axis: np.cumsum(a, axis=axis, out=a), np.add)
    if isinstance(aggregate, MaxAggregate):
        return (
            lambda a, axis: np.maximum.accumulate(a, axis=axis, out=a),
            np.maximum,
        )
    if isinstance(aggregate, MinAggregate):
        return (
            lambda a, axis: np.minimum.accumulate(a, axis=axis, out=a),
            np.minimum,
        )
    return None


def _generic_tile_prefix_combine(
    tensor: np.ndarray, aggregate: OSPAggregate, carries: Carries
) -> tuple[np.ndarray, Carries]:
    """Tile fold for user-defined aggregates, serial operand order.

    The carry enters each line as ``combine(line[0], carry)`` — exactly
    the serial recurrence applied at the seam — and seams are captured
    as object arrays of the (immutable) state tuples, so later passes
    rebinding line elements cannot corrupt captured seams.
    """
    if tensor.dtype == object:
        states = tensor.copy()
    else:
        states = np.empty(tensor.shape[:-1], dtype=object)
        for index in np.ndindex(states.shape):
            states[index] = tuple(float(value) for value in tensor[index])
    seams: Carries = {}
    for axis in range(states.ndim):
        length = states.shape[axis]
        rest = states.shape[:axis] + states.shape[axis + 1:]
        carry = carries.get(axis)
        for index in np.ndindex(rest):
            line = states[index[:axis] + (slice(None),) + index[axis:]]
            if carry is not None:
                line[0] = aggregate.combine(line[0], carry[index])
            for k in range(1, length):
                line[k] = aggregate.combine(line[k], line[k - 1])
        seam = np.empty(rest, dtype=object)
        for index in np.ndindex(rest):
            seam[index] = states[index[:axis] + (length - 1,) + index[axis:]]
        seams[axis] = seam
    return states, seams


__all__ = [
    "BALL_GROWTH",
    "BOUND_SLACK",
    "GridExplorer",
    "ShellGridExplorer",
    "TiledGridExplorer",
    "tile_prefix_combine",
    "tile_shape_for",
]
