"""Materialized Explore: whole-grid / tiled aggregation + prefix combine.

The incremental Explore (:mod:`repro.core.explore`) pays one backend
round trip per visited cell. For dense searches the entire cell tensor
can be computed in a *single* backend pass
(:meth:`~repro.engine.backends.EvaluationLayer.execute_grid`), after
which the Eq. 17 recurrence

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

Tiling (:class:`TiledGridExplorer`): when the grid is too large to
materialize whole — or when only a prefix of the traversal will ever be
visited — the grid is partitioned into axis-aligned rectangular tiles
(the cartesian product of per-axis coordinate intervals) and each tile
is materialized on demand through
:meth:`~repro.engine.backends.EvaluationLayer.execute_grid_tile`. The
prefix passes run per tile with *seam carries*: after pass ``a`` over a
tile, its last slab along axis ``a`` (the stage-``a+1`` values at the
tile's upper boundary) is captured; the neighbouring tile one step up
along axis ``a`` folds that slab into its first slab before running its
own pass ``a``. Because the resulting per-line association chain is
exactly the full-grid chain, tiled block states are bit-identical to
both the whole-grid and the serial engines. A tile's carries come from
its componentwise-predecessor tiles, so materializing the down-set
``{t' : t' <= t}`` in lexicographic order satisfies every dependency.

Both materializing engines optionally consult a
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
import time
from typing import Callable, Iterator, Optional, Sequence

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


class GridExplorer:
    """Drop-in Explore engine over a materialized cell grid.

    Exposes the same ``compute_aggregate`` / ``block_state`` /
    counter interface as
    :class:`~repro.core.explore.Explorer`, so the ACQUIRE driver, its
    budget accounting and the repartitioning step work unchanged.

    The grid is materialized lazily on first access; ``cells_executed``
    then equals the full grid size (every cell was computed exactly
    once, in one pass), and ``cells_skipped`` stays 0 — the bitmap
    index is pointless here because emptiness falls out of the same
    pass. With a ``cache``, a hit serves the cell tensor without any
    backend pass and ``cells_executed`` stays 0. ``pass_s`` is the
    seconds of that backend pass and its prefix passes (None when the
    cache served the tensor).
    """

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
        cache: Optional[GridTensorCache] = None,
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.cache = cache
        self.cells_executed = 0
        self.cells_skipped = 0
        self.pass_s: Optional[float] = None
        self._blocks: np.ndarray | None = None

    # -- Explorer interface --------------------------------------------
    def compute_aggregate(self, coords: Sequence[int]) -> float:
        """Finalized aggregate value of the grid query at ``coords``."""
        return self.aggregate.finalize(self.block_state(coords))

    def compute_aggregates(
        self, coords_list: Sequence[Sequence[int]]
    ) -> Iterator[float]:
        """Finalized aggregate values of a layer's grid queries, in order.

        One fancy-index gather from the block tensor, then ``finalize``
        of each gathered state as it is pulled. The states are the same
        Python floats (or state tuples) that ``block_state`` reads, so
        each value equals ``compute_aggregate`` bit for bit.
        """
        blocks = self._materialized()
        points = np.asarray(coords_list, dtype=np.intp).reshape(
            -1, self.space.d
        )
        states = blocks[tuple(points.T)]
        if states.dtype != object:
            states = map(tuple, states.tolist())
        return map(self.aggregate.finalize, states)

    def block_state(self, coords: Sequence[int]) -> AggState:
        """Aggregate state of the full query at ``coords`` (``O_{d+1}``)."""
        blocks = self._materialized()
        key = tuple(int(coord) for coord in coords)
        if blocks.dtype == object:
            return blocks[key]
        return tuple(float(value) for value in blocks[key])

    def prime_cells(self, coords_list: Sequence[Sequence[int]]) -> int:
        """No-op: the whole grid is (or will be) materialized at once."""
        return 0

    # -- materialization -----------------------------------------------
    def _materialized(self) -> np.ndarray:
        if self._blocks is None:
            blocks_key = None
            if self.cache is not None:
                blocks_key = GridTensorCache.key_for(
                    self.layer, self.prepared.query, self.space,
                    kind="blocks",
                )
                # Single-flighted: N threads racing one cold key elect
                # a leader and the rest adopt its result — at most one
                # persistent-tier read.
                cached, tier, _ = self.cache.lookup_or_lead(blocks_key)
                if cached is not None:
                    # A finished block tensor: skip the backend pass
                    # and the d prefix passes entirely.
                    self.layer.count_cache_event(
                        True,
                        int(cached.nbytes),
                        persistent=tier == "persistent",
                        block=True,
                    )
                    self._blocks = cached
                    return cached
            started = time.perf_counter()
            try:
                tensor = self._fetch_grid()
                blocks = prefix_combine(tensor, self.aggregate)
            except BaseException:
                if blocks_key is not None:
                    self.cache.abort_flight(blocks_key)
                raise
            if self.cells_executed:
                self.pass_s = time.perf_counter() - started
            if blocks_key is not None:
                blocks = self.cache.complete_flight(blocks_key, blocks)
            self._blocks = blocks
        return self._blocks

    def _fetch_grid(self) -> np.ndarray:
        tensor, executed = _fetch_cells(
            self.layer, self.prepared, self.space, self.cache,
            lambda: self.layer.execute_grid(self.prepared, self.space),
        )
        if executed:
            self.cells_executed = _cell_count(tensor)
        return tensor


class TiledGridExplorer:
    """Explore engine over on-demand, seam-stitched grid tiles.

    Same driver-facing interface as :class:`GridExplorer`, but the grid
    is materialized tile by tile: only tiles the traversal actually
    reaches (plus their componentwise-predecessor down-set, needed for
    seam carries) are ever computed, so a search that stops after a few
    layers — or is truncated by ``max_grid_queries`` — never pays for
    the far corner of the grid.

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
            pass and its prefix passes.

    ``pass_s`` is the seconds of the last tile's backend pass and its
    prefix passes (None until a tile is fetched from the backend).
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
        self.cells_executed = 0
        self.cells_skipped = 0
        self.tiles_materialized = 0
        self.tiles_restored = 0
        self.pass_s: Optional[float] = None
        self._blocks: dict[Coords, np.ndarray] = {}
        self._seams: dict[tuple[Coords, int], np.ndarray] = {}

    # -- Explorer interface --------------------------------------------
    def compute_aggregate(self, coords: Sequence[int]) -> float:
        """Finalized aggregate value of the grid query at ``coords``."""
        return self.aggregate.finalize(self.block_state(coords))

    def compute_aggregates(
        self, coords_list: Sequence[Sequence[int]]
    ) -> Iterator[float]:
        """Lazy ``compute_aggregate`` over a layer, one point per pull,
        so only the tiles of points the driver examines materialize."""
        return (self.compute_aggregate(coords) for coords in coords_list)

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
        """No-op: tiles materialize when ``block_state`` reaches them."""
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

    def _ensure_tile(self, tile: Coords) -> np.ndarray:
        blocks = self._blocks.get(tile)
        if blocks is None:
            self._ensure_tiles([tile])
            blocks = self._blocks[tile]
        return blocks

    def _ensure_tiles(self, tiles: Sequence[Coords]) -> None:
        """Materialize every missing tile in the targets' down-sets.

        Seam carries chain through every componentwise predecessor, so
        each target needs its down-set ``{t' : t' <= t}``; global
        lexicographic order guarantees ``t - e_a`` is handled before
        ``t``. Tiles restorable from the block cache are installed
        first (they need no carries and *provide* their seams); the
        rest are fetched and stitched in lexicographic order.
        """
        pending: list[Coords] = []
        seen: set[Coords] = set()
        for target in sorted(tuple(int(t) for t in tile) for tile in tiles):
            if target in self._blocks:
                continue
            for dep in itertools.product(*(range(t + 1) for t in target)):
                if dep in seen or dep in self._blocks:
                    continue
                seen.add(dep)
                if not self._restore_tile(dep):
                    pending.append(dep)
        for dep in sorted(pending):
            self._materialize_tile(dep)

    def _tile_key(self, tile: Coords, kind: str):
        lo, hi = self.tile_bounds(tile)
        return GridTensorCache.key_for(
            self.layer, self.prepared.query, self.space, lo, hi, kind=kind
        )

    def _restore_tile(self, tile: Coords) -> bool:
        """Install a tile's finished blocks + seams from the cache.

        Succeeds only when the block tensor *and* every seam slab a
        successor tile could need are all present — a partial hit is
        treated as a miss so stitching never sees half a tile.
        """
        if self.cache is None:
            return False
        blocks, tier = self.cache.lookup(self._tile_key(tile, "blocks"))
        if blocks is None:
            return False
        nbytes = int(blocks.nbytes)
        seams: Carries = {}
        for axis in range(self.space.d):
            if tile[axis] + 1 >= self._tile_counts[axis]:
                continue
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

    def _materialize_tile(self, tile: Coords) -> None:
        started = time.perf_counter()
        executed = self.cells_executed
        tensor = self._fetch_tile(*self.tile_bounds(tile))
        carries: Carries = {}
        for axis in range(self.space.d):
            if tile[axis] > 0:
                neighbour = (
                    tile[:axis] + (tile[axis] - 1,) + tile[axis + 1:]
                )
                carries[axis] = self._seams[(neighbour, axis)]
        blocks, seams = tile_prefix_combine(tensor, self.aggregate, carries)
        if self.cells_executed > executed:
            self.pass_s = time.perf_counter() - started
        if self.cache is not None:
            blocks = self.cache.put(self._tile_key(tile, "blocks"), blocks)
        self._blocks[tile] = blocks
        for axis, seam in seams.items():
            if tile[axis] + 1 < self._tile_counts[axis]:
                if self.cache is not None:
                    seam = self.cache.put(
                        self._tile_key(tile, f"seam{axis}"), seam
                    )
                self._seams[(tile, axis)] = seam
        self.tiles_materialized += 1

    def _fetch_tile(self, lo: Coords, hi: Coords) -> np.ndarray:
        tensor, executed = _fetch_cells(
            self.layer, self.prepared, self.space, self.cache,
            lambda: self.layer.execute_grid_tile(
                self.prepared, self.space, lo, hi
            ),
            lo, hi,
        )
        if executed:
            self.cells_executed += _cell_count(tensor)
        return tensor


def _fetch_cells(
    layer: EvaluationLayer,
    prepared: PreparedQuery,
    space: RefinedSpace,
    cache: Optional[GridTensorCache],
    execute: Callable[[], np.ndarray],
    lo: Optional[Coords] = None,
    hi: Optional[Coords] = None,
) -> tuple[np.ndarray, bool]:
    """The cell tensor of the box ``[lo, hi]`` (default: the whole
    grid), from ``cache`` or from one backend pass (``execute``).

    Misses are single-flighted through the cache, so N threads missing
    the same box execute exactly one backend pass; a pass that raises
    aborts the flight so parked threads retry instead of waiting
    forever. Returns ``(tensor, executed)``: ``executed`` is False when
    the cache served the tensor.
    """
    if cache is None:
        return execute(), True
    key = GridTensorCache.key_for(layer, prepared.query, space, lo, hi)
    cached, tier, _ = cache.lookup_or_lead(key)
    if cached is not None:
        layer.count_cache_event(
            True, int(cached.nbytes), persistent=tier == "persistent"
        )
        return cached, False
    try:
        tensor = execute()
    except BaseException:
        cache.abort_flight(key)
        raise
    tensor = cache.complete_flight(key, tensor)
    layer.count_cache_event(False)
    return tensor, True


def _cell_count(tensor: np.ndarray) -> int:
    """Grid cells of a cell tensor (every axis but the state axis)."""
    return int(np.prod(tensor.shape[:-1], dtype=np.int64))


def tile_shape_for(space: RefinedSpace, max_tile_cells: int) -> Coords:
    """Per-axis tile widths with at most ``max_tile_cells`` per tile.

    Starts from the full extent and repeatedly halves the widest axis —
    keeping tiles as chunky (seam-light) as the budget allows while
    staying deterministic.
    """
    cap = max(int(max_tile_cells), 1)
    widths = [limit + 1 for limit in space.max_coords]
    while int(np.prod(widths, dtype=np.int64)) > cap:
        axis = max(range(len(widths)), key=lambda a: widths[a])
        if widths[axis] == 1:
            break
        widths[axis] = max(widths[axis] // 2, 1)
    return tuple(widths)


# ---------------------------------------------------------------------------
# Prefix passes


def prefix_combine(
    tensor: np.ndarray, aggregate: OSPAggregate
) -> np.ndarray:
    """Turn a cell tensor into a *new* block tensor.

    Applies one cumulative combine per grid axis (``np.cumsum`` for
    COUNT/SUM and both components of AVG's (sum, count) pair,
    ``np.maximum/minimum.accumulate`` for MAX/MIN). User-defined OSP
    aggregates fall back to an object array folded with
    ``aggregate.combine`` in the serial operand order; the result is
    then an object array of :data:`AggState` tuples.

    The input tensor is never written: callers may hand in shared
    (cached, read-only) tensors and keep using them afterwards.
    """
    ops = _vector_ops(aggregate)
    if ops is None:
        return _generic_prefix_combine(tensor, aggregate)
    accumulate, _ = ops
    blocks = np.array(tensor, dtype=np.float64, copy=True)
    for axis in range(blocks.ndim - 1):
        accumulate(blocks, axis)
    return blocks


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
    identical to :func:`prefix_combine` over the whole grid.

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


def _to_object_states(tensor: np.ndarray) -> np.ndarray:
    """Cell tensor -> object array of AggState tuples (always a copy)."""
    if tensor.dtype == object:
        return tensor.copy()
    shape = tensor.shape[:-1]
    states = np.empty(shape, dtype=object)
    for index in np.ndindex(shape):
        states[index] = tuple(float(value) for value in tensor[index])
    return states


def _generic_prefix_combine(
    tensor: np.ndarray, aggregate: OSPAggregate
) -> np.ndarray:
    """Python fold for aggregates without a vectorized accumulate.

    ``combine(line[k], line[k-1])`` matches the serial recurrence's
    ``combine(states[index - 1], previous)`` operand order exactly, so
    no commutativity is assumed of the user's combine function.
    """
    states = _to_object_states(tensor)
    for axis in range(states.ndim):
        length = states.shape[axis]
        if length <= 1:
            continue
        rest = states.shape[:axis] + states.shape[axis + 1:]
        for index in np.ndindex(rest):
            line = states[index[:axis] + (slice(None),) + index[axis:]]
            for k in range(1, length):
                line[k] = aggregate.combine(line[k], line[k - 1])
    return states


def _generic_tile_prefix_combine(
    tensor: np.ndarray, aggregate: OSPAggregate, carries: Carries
) -> tuple[np.ndarray, Carries]:
    """Tile fold for user-defined aggregates, serial operand order.

    The carry enters each line as ``combine(line[0], carry)`` — exactly
    the serial recurrence applied at the seam — and seams are captured
    as object arrays of the (immutable) state tuples, so later passes
    rebinding line elements cannot corrupt captured seams.
    """
    states = _to_object_states(tensor)
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
    "GridExplorer",
    "TiledGridExplorer",
    "prefix_combine",
    "tile_prefix_combine",
    "tile_shape_for",
]
