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

Sharding (:class:`TileScheduler`): tile *fetches* — the backend pass
producing a tile's cell tensor — have no inter-tile dependency; only
the seam *stitching* is dependency-ordered. The scheduler therefore
dispatches every missing tile's fetch to a worker pool up front and
stitches serially in lexicographic order as tensors arrive, overlapping
backend I/O with prefix passes. Because each cell tensor is
deterministic regardless of fetch timing and the stitch order never
changes, block states stay bit-identical to the serial engine.

Process tier (:class:`ProcessTileScheduler`): thread workers only help
backends whose fetch path releases the GIL (sqlite); the numpy memory
backend computes tiles under the GIL, so its thread arm is flat. With
``tile_executor="process"`` fetches are dispatched to a persistent
``multiprocessing`` pool instead: workers rebuild the backend once per
pool from a picklable :class:`~repro.core.tile_worker.BackendSpec` and
return tile tensors through ``multiprocessing.shared_memory`` blocks,
so the parent stitches straight out of the mapped buffer. Stitching
stays serial in lex order on the parent, so answers remain
bit-identical to serial at any worker count. Pools are registered
process-wide keyed by (spec digest, workers) and survive across
explorer instances; a broken pool degrades to in-process fetches
(counted as ``process_fallbacks``) rather than failing the search.

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

import atexit
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures.process import (
    BrokenProcessPool,
    ProcessPoolExecutor,
)
from multiprocessing import shared_memory
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
from repro.engine.backends import (
    EvaluationLayer,
    PreparedQuery,
    current_scopes,
    scoped_stats,
)
from repro.exceptions import SearchError

Coords = tuple[int, ...]

#: axis -> carry slab (the neighbour tile's seam along that axis).
Carries = dict[int, np.ndarray]


class GridExplorer:
    """Drop-in Explore engine over a materialized cell grid.

    Exposes the same ``compute_aggregate`` / ``block_state`` /
    ``prime_cells`` / counter interface as
    :class:`~repro.core.explore.Explorer`, so the ACQUIRE driver, its
    budget accounting and the repartitioning step work unchanged.

    The grid is materialized lazily on first access; ``cells_executed``
    then equals the full grid size (every cell was computed exactly
    once, in one pass), and ``cells_skipped`` stays 0 — the bitmap
    index is pointless here because emptiness falls out of the same
    pass. With a ``cache``, a hit serves the cell tensor without any
    backend pass and ``cells_executed`` stays 0.
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
            flight = None
            if self.cache is not None:
                blocks_key = GridTensorCache.key_for(
                    self.layer, self.prepared.query, self.space,
                    kind="blocks",
                )
                # Single-flighted even on the fusion path: the block
                # tensor is derived locally (never fused), so N threads
                # racing one cold key elect a leader and the rest adopt
                # its result — at most one persistent-tier read.
                cached, tier, flight = self.cache.lookup_or_lead(
                    blocks_key
                )
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
            try:
                tensor = self._fetch_grid()
                blocks = prefix_combine(tensor, self.aggregate)
            except BaseException:
                if flight is not None:
                    self.cache.abort_flight(blocks_key)
                raise
            if blocks_key is not None:
                blocks = self.cache.complete_flight(blocks_key, blocks)
            self._blocks = blocks
        return self._blocks

    def _fetch_grid(self) -> np.ndarray:
        if self.cache is None:
            tensor, executed = self._grid_pass()
            if executed:
                self.cells_executed = int(
                    np.prod(tensor.shape[:-1], dtype=np.int64)
                )
            return tensor
        key = GridTensorCache.key_for(
            self.layer, self.prepared.query, self.space
        )
        if getattr(self.layer, "pass_coalescer", None) is not None:
            # Fusion path (docs/SERVICE.md): plain lookup — the
            # coalescer does its own in-flight joining — and misses
            # route through the coalescer so concurrent requests can
            # share one merged pass.
            cached, tier = self.cache.lookup(key)
            if cached is not None:
                self.layer.count_cache_event(
                    True,
                    int(cached.nbytes),
                    persistent=tier == "persistent",
                )
                return cached
            tensor, executed = self._grid_pass()
            if executed:
                self.cells_executed = int(
                    np.prod(tensor.shape[:-1], dtype=np.int64)
                )
                tensor = self.cache.put(key, tensor)
                self.layer.count_cache_event(False)
            else:
                # Adopted from another request's pass: cache-hit-like
                # semantics (the leader executed and counted the pass),
                # mirroring the serial replay where a duplicate query
                # is served by the shared cache.
                tensor = self.cache.put(key, tensor)
            return tensor
        # Unhooked path: single-flight through the cache so N threads
        # missing the same grid execute exactly one backend pass.
        cached, tier, flight = self.cache.lookup_or_lead(key)
        if cached is not None:
            self.layer.count_cache_event(
                True, int(cached.nbytes), persistent=tier == "persistent"
            )
            return cached
        try:
            tensor = self.layer.execute_grid(self.prepared, self.space)
        except BaseException:
            self.cache.abort_flight(key)
            raise
        self.cells_executed = int(np.prod(tensor.shape[:-1], dtype=np.int64))
        tensor = self.cache.complete_flight(key, tensor)
        self.layer.count_cache_event(False)
        return tensor

    def _grid_pass(self) -> tuple[np.ndarray, bool]:
        """One full-grid backend pass, fused when a coalescer is up.

        Returns ``(tensor, executed)``: ``executed=False`` means the
        tensor was adopted from another in-flight request's merged
        pass and this request must not count the execution.
        """
        coalescer = getattr(self.layer, "pass_coalescer", None)
        if coalescer is not None:
            lo = (0,) * self.space.d
            hi = tuple(int(c) for c in self.space.max_coords)
            fetched = coalescer.fetch_tile(
                self.layer, self.prepared, self.space, lo, hi
            )
            if fetched is not None:
                return fetched.tensor, fetched.executed
        return self.layer.execute_grid(self.prepared, self.space), True


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
        tile_workers: worker threads for the sharded tile pipeline
            (1 = serial). Tile fetches are dispatched to a pool while
            stitching stays serial in lexicographic order, so results
            are bit-identical to the serial engine at any worker
            count.
        tile_executor: ``"thread"`` (default) or ``"process"``. The
            process tier dispatches fetches to a persistent worker
            *process* pool over shared memory, escaping the GIL for
            backends whose fetch path is pure Python/numpy. It needs a
            picklable backend recipe (``layer.backend_spec``) and a
            vectorized aggregate; otherwise the explorer silently
            falls back to the thread tier (the effective choice is
            recorded on :attr:`tile_executor`). Ignored when
            ``tile_workers == 1``.
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
        tile_workers: int = 1,
        tile_executor: str = "thread",
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.cache = cache
        # Captured on the constructing (request) thread: pool workers
        # start with an empty context, so _fetch_tile re-establishes
        # these scopes to credit the owning request (see
        # repro.engine.backends.scoped_stats).
        self._scopes = current_scopes()
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
        if int(tile_workers) < 1:
            raise SearchError(
                f"tile_workers must be >= 1, got {tile_workers}"
            )
        self.tile_workers = int(tile_workers)
        if tile_executor not in ("thread", "process"):
            raise SearchError(
                f"unknown tile_executor {tile_executor!r}; "
                "expected 'thread' or 'process'"
            )
        self.cells_executed = 0
        self.cells_skipped = 0
        self.tiles_materialized = 0
        self.tiles_restored = 0
        self._blocks: dict[Coords, np.ndarray] = {}
        self._seams: dict[tuple[Coords, int], np.ndarray] = {}
        # Guards counters written from fetch worker threads.
        self._count_lock = threading.Lock()
        self._scheduler: Optional[TileScheduler | ProcessTileScheduler]
        self._scheduler = None
        self.tile_executor = "serial"
        if self.tile_workers > 1:
            self.tile_executor = "thread"
            spec = (
                layer.backend_spec(prepared)
                if tile_executor == "process"
                else None
            )
            if spec is not None and _vector_ops(aggregate) is not None:
                # Process tier: picklable backend + float64 tiles only.
                # Anything else (custom backend, generic OSP aggregate)
                # falls back to thread workers.
                self._scheduler = ProcessTileScheduler(
                    self, self.tile_workers, spec
                )
                self.tile_executor = "process"
            else:
                self._scheduler = TileScheduler(self, self.tile_workers)

    def close(self) -> None:
        """Shut down the tile worker pool (no-op when serial)."""
        if self._scheduler is not None:
            self._scheduler.close()

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
        """Pre-materialize the tiles a layer's coordinates land in.

        Returns the number of cells newly executed against the backend
        (0 when every touched tile was already materialized or served
        from cache), mirroring ``Explorer.prime_cells`` accounting.
        """
        with self._count_lock:
            before = self.cells_executed
        tiles = {
            tuple(int(c) // w for c, w in zip(coords, self.tile_shape))
            for coords in coords_list
        }
        self._ensure_tiles(sorted(tiles))
        with self._count_lock:
            return self.cells_executed - before

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
        rest are fetched — in parallel when a scheduler is attached —
        and stitched serially in lexicographic order.
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
        pending.sort()
        if self._scheduler is not None and len(pending) > 1:
            self._scheduler.run(pending)
        else:
            for dep in pending:
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

    def _materialize_tile(
        self, tile: Coords, tensor: Optional[np.ndarray] = None
    ) -> None:
        lo, hi = self.tile_bounds(tile)
        if tensor is None:
            tensor = self._fetch_tile(lo, hi)
        carries: Carries = {}
        for axis in range(self.space.d):
            if tile[axis] > 0:
                neighbour = (
                    tile[:axis] + (tile[axis] - 1,) + tile[axis + 1:]
                )
                carries[axis] = self._seams[(neighbour, axis)]
        blocks, seams = tile_prefix_combine(tensor, self.aggregate, carries)
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
        # May run on a TileScheduler pool thread; re-establish the
        # owning request's stat scopes (idempotent on the request
        # thread itself, where they are already active).
        with scoped_stats(self._scopes):
            coalescer = getattr(self.layer, "pass_coalescer", None)
            if self.cache is None or coalescer is not None:
                cached = self._cached_tile(lo, hi)
                if cached is not None:
                    return cached
                if coalescer is not None:
                    # Fusion path (docs/SERVICE.md): the miss routes
                    # through the coalescer so concurrent requests can
                    # share one merged backend pass.
                    fetched = coalescer.fetch_tile(
                        self.layer, self.prepared, self.space, lo, hi
                    )
                    if fetched is not None:
                        if fetched.executed:
                            return self._store_tile(lo, hi, fetched.tensor)
                        return self._adopt_tile(lo, hi, fetched.tensor)
                tensor = self.layer.execute_grid_tile(
                    self.prepared, self.space, lo, hi
                )
                return self._store_tile(lo, hi, tensor)
            # Unhooked path: single-flight through the cache so N
            # threads missing the same tile execute exactly one
            # backend pass.
            key = GridTensorCache.key_for(
                self.layer, self.prepared.query, self.space, lo, hi
            )
            cached, tier, flight = self.cache.lookup_or_lead(key)
            if cached is not None:
                self.layer.count_cache_event(
                    True,
                    int(cached.nbytes),
                    persistent=tier == "persistent",
                )
                return cached
            try:
                tensor = self.layer.execute_grid_tile(
                    self.prepared, self.space, lo, hi
                )
            except BaseException:
                self.cache.abort_flight(key)
                raise
            return self._store_tile(lo, hi, tensor, flight=True)

    def _cached_tile(self, lo: Coords, hi: Coords) -> Optional[np.ndarray]:
        """Cell-cache lookup for one tile (None on miss or no cache).

        Split out of :meth:`_fetch_tile` so the process scheduler can
        pre-check the cache in the parent and dispatch only misses.
        """
        if self.cache is None:
            return None
        key = GridTensorCache.key_for(
            self.layer, self.prepared.query, self.space, lo, hi
        )
        cached, tier = self.cache.lookup(key)
        if cached is not None:
            self.layer.count_cache_event(
                True, int(cached.nbytes), persistent=tier == "persistent"
            )
        return cached

    def _store_tile(
        self,
        lo: Coords,
        hi: Coords,
        tensor: np.ndarray,
        flight: bool = False,
    ) -> np.ndarray:
        """Account for a freshly executed tile and admit it to the
        cell cache (counterpart of a :meth:`_cached_tile` miss).

        With ``flight=True`` the admission goes through
        :meth:`~repro.core.grid_cache.GridTensorCache.complete_flight`
        so threads parked on this tile's in-flight entry wake with the
        tensor (the caller must hold the flight's lead).

        Callers handing in a shared-memory view must copy it out first
        when a cache is attached — the cache may retain the array past
        the block's unlink.
        """
        with self._count_lock:
            self.cells_executed += int(
                np.prod(tensor.shape[:-1], dtype=np.int64)
            )
        if self.cache is None:
            return tensor
        key = GridTensorCache.key_for(
            self.layer, self.prepared.query, self.space, lo, hi
        )
        if flight:
            tensor = self.cache.complete_flight(key, tensor)
        else:
            tensor = self.cache.put(key, tensor)
        self.layer.count_cache_event(False)
        return tensor

    def _adopt_tile(
        self, lo: Coords, hi: Coords, tensor: np.ndarray
    ) -> np.ndarray:
        """Install a tile adopted from another request's fused pass.

        Cache-hit-like semantics: the pass was executed — and its
        counters credited — by the leading request, so no
        ``cells_executed`` and no cache hit/miss event is recorded
        here, mirroring the serial replay where a duplicate query is
        served by the shared cache.
        """
        if self.cache is None:
            return tensor
        key = GridTensorCache.key_for(
            self.layer, self.prepared.query, self.space, lo, hi
        )
        return self.cache.put(key, tensor)


class TileScheduler:
    """Dispatches independent tile fetches to a worker pool.

    The down-set arrives topologically ordered (lexicographic order is
    a linearization of the componentwise-predecessor DAG). Fetches —
    the backend pass producing a tile's *cell* tensor — have no
    inter-tile dependency, so all of them are submitted up front;
    stitching (seam carries + prefix passes) consumes the futures
    strictly in the given order on the calling thread. Materialization
    of tile ``k`` thus overlaps the fetches of tiles ``k+1..n`` while
    block states stay bit-identical to the serial engine.
    """

    def __init__(self, explorer: "TiledGridExplorer", workers: int) -> None:
        self.explorer = explorer
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _pool_for(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-tile"
            )
        return self._pool

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run(self, pending: Sequence[Coords]) -> None:
        explorer = self.explorer
        pool = self._pool_for()
        futures = {}
        for tile in pending:
            lo, hi = explorer.tile_bounds(tile)
            futures[tile] = pool.submit(explorer._fetch_tile, lo, hi)
        try:
            for tile in pending:
                explorer._materialize_tile(
                    tile, tensor=futures[tile].result()
                )
        finally:
            for future in futures.values():
                future.cancel()
        explorer.layer.count_parallel_tiles(len(pending))


# ---------------------------------------------------------------------------
# Process tier: persistent worker-process pools over shared memory

#: Environment override for the worker start method ("spawn" default;
#: "fork" skips the interpreter boot but inherits parent state).
_START_METHOD_ENV = "REPRO_TILE_START_METHOD"


def _start_method() -> str:
    method = os.environ.get(_START_METHOD_ENV, "spawn")
    if method not in multiprocessing.get_all_start_methods():
        return "spawn"
    return method


class _ProcessPool:
    """Registry entry: one persistent worker pool per (spec, workers).

    ``refs`` counts in-flight batches using the executor and
    ``retired`` marks a pool dropped from the registry after a
    failure; both fields are guarded by ``_PROCESS_POOL_LOCK``. The
    executor is only shut down once a retired pool's refcount reaches
    zero, so one request's fallback-retirement can never cancel another
    request's futures mid-batch.
    """

    __slots__ = ("key", "executor", "refs", "retired")

    def __init__(
        self, key: tuple[str, int], executor: ProcessPoolExecutor
    ) -> None:
        self.key = key
        self.executor = executor
        self.refs = 0
        self.retired = False


#: Process-wide pool registry. Workers rebuild their backend once per
#: pool (the expensive part), so pools outlive explorer instances and
#: repeated searches over the same data reuse warm workers.
_PROCESS_POOLS: dict[tuple[str, int], _ProcessPool] = {}
_PROCESS_POOL_LOCK = threading.Lock()
#: Per-key spawn locks: concurrent first use of the *same* key blocks
#: on one lock (double-checked against the registry) instead of both
#: spawning, while lookups and spawns for unrelated keys proceed —
#: the registry lock is never held across the spawn/warm barrier.
_POOL_SPAWN_LOCKS: dict[tuple[str, int], threading.Lock] = {}


def _process_pool_for(
    spec, workers: int, layer: EvaluationLayer
) -> Optional[_ProcessPool]:
    """A warm worker pool for ``spec``, spawning one if needed.

    Spawning submits one barrier task per worker so process start-up
    and the per-worker backend rebuild complete here — recorded as
    ``process_spawn_s`` — rather than bleeding into the first tile
    batch's IPC measurement. Returns None when workers cannot be
    spawned (the scheduler then degrades to in-process fetches).

    The returned pool carries one reference owned by the caller;
    release it with :func:`_release_pool` when the batch is done.
    """
    from repro.core import tile_worker

    key = (spec.digest(), int(workers))
    with _PROCESS_POOL_LOCK:
        pool = _PROCESS_POOLS.get(key)
        if pool is not None:
            pool.refs += 1
            return pool
        spawn_lock = _POOL_SPAWN_LOCKS.setdefault(key, threading.Lock())
    with spawn_lock:
        # Double-check: another request may have finished spawning this
        # key's pool while we waited on its spawn lock.
        with _PROCESS_POOL_LOCK:
            pool = _PROCESS_POOLS.get(key)
            if pool is not None:
                pool.refs += 1
                return pool
        started = time.perf_counter()
        executor: Optional[ProcessPoolExecutor] = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=int(workers),
                mp_context=multiprocessing.get_context(_start_method()),
                initializer=tile_worker.initialize_worker,
                initargs=(spec,),
            )
            warm = [
                executor.submit(tile_worker.warm_worker)
                for _ in range(int(workers))
            ]
            for future in warm:
                future.result(timeout=120)
        except (OSError, ValueError, RuntimeError):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            return None
        pool = _ProcessPool(key, executor)
        with _PROCESS_POOL_LOCK:
            pool.refs = 1
            _PROCESS_POOLS[key] = pool
    layer.count_process_tiles(
        pools=1, spawn_s=time.perf_counter() - started
    )
    return pool


def _release_pool(pool: _ProcessPool) -> None:
    """Drop one batch's reference; reap a retired pool on the last one."""
    with _PROCESS_POOL_LOCK:
        pool.refs -= 1
        reap = pool.retired and pool.refs <= 0
    if reap:
        pool.executor.shutdown(wait=False, cancel_futures=True)


def _retire_pool(pool: _ProcessPool) -> None:
    """Drop a broken pool from the registry.

    The executor is reaped immediately when no other batch holds a
    reference; otherwise shutdown is deferred to the last
    :func:`_release_pool`, so concurrent batches finish (or observe the
    breakage themselves) instead of having their futures cancelled out
    from under them. Identity-checked against the registry so retiring
    a stale pool never evicts a fresh replacement under the same key.
    """
    with _PROCESS_POOL_LOCK:
        if _PROCESS_POOLS.get(pool.key) is pool:
            del _PROCESS_POOLS[pool.key]
        pool.retired = True
        reap = pool.refs <= 0
    if reap:
        pool.executor.shutdown(wait=False, cancel_futures=True)


def shutdown_process_pools() -> None:
    """Shut down every registered tile worker pool (idempotent).

    Pools persist across explorer instances so repeated searches reuse
    warm workers; call this to reclaim the processes. An ``atexit``
    hook covers normal interpreter exit.
    """
    with _PROCESS_POOL_LOCK:
        pools = list(_PROCESS_POOLS.values())
        _PROCESS_POOLS.clear()
        for pool in pools:
            pool.retired = True
    for pool in pools:
        pool.executor.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_process_pools)


class ProcessTileScheduler:
    """Dispatches tile fetches to a persistent worker-*process* pool.

    Same contract as :class:`TileScheduler` — fetches fan out, stitching
    consumes strictly in the given lexicographic order on the calling
    thread, results are bit-identical to serial — but the fetch runs in
    another process, so backends that compute tiles under the GIL (the
    numpy memory backend, histograms) scale too.

    Mechanics per batch: the parent pre-checks the cell cache and, for
    each miss, creates a ``multiprocessing.shared_memory`` block sized
    from the tile's shape and the aggregate's state arity (the process
    tier is float64-only by construction), then submits
    :func:`repro.core.tile_worker.fetch_tile`. The worker fills the
    block and ships back only its stats delta; the parent stitches
    straight out of the mapped buffer (``tile_prefix_combine`` copies
    into its work array, so the zero-copy read is safe) and then closes
    + unlinks the block. Infrastructure failures — pool crash, worker
    death, shm exhaustion — degrade to in-process fetches and are
    counted as ``process_fallbacks``; deterministic engine errors
    propagate exactly as the serial path would raise them.
    """

    def __init__(
        self, explorer: "TiledGridExplorer", workers: int, spec
    ) -> None:
        self.explorer = explorer
        self.workers = int(workers)
        self.spec = spec
        self._key = (spec.digest(), self.workers)
        self._arity = len(explorer.aggregate.identity())

    def close(self) -> None:
        """No-op: pools are process-wide and stay warm for the next
        explorer (see :func:`shutdown_process_pools`)."""

    def run(self, pending: Sequence[Coords]) -> None:
        explorer = self.explorer
        layer = explorer.layer
        pool = _process_pool_for(self.spec, self.workers, layer)
        if pool is None:
            for tile in pending:
                explorer._materialize_tile(tile)
            layer.count_process_tiles(fallbacks=len(pending))
            return
        try:
            self._run_batch(pool, pending)
        finally:
            _release_pool(pool)

    def _run_batch(
        self, pool: _ProcessPool, pending: Sequence[Coords]
    ) -> None:
        from repro.core import tile_worker

        explorer = self.explorer
        layer = explorer.layer
        started = time.perf_counter()
        stitch_s = 0.0
        worker_exec_s = 0.0
        dispatched = 0
        fallbacks = 0
        shm_bytes = 0
        tasks: dict[Coords, tuple[str, object]] = {}
        blocks: dict[Coords, shared_memory.SharedMemory] = {}
        broken = False
        try:
            for tile in pending:
                lo, hi = explorer.tile_bounds(tile)
                cached = explorer._cached_tile(lo, hi)
                if cached is not None:
                    tasks[tile] = ("tensor", cached)
                    continue
                if broken:
                    tasks[tile] = ("fetch", (lo, hi))
                    continue
                shape = tuple(
                    high - low + 1 for low, high in zip(lo, hi)
                ) + (self._arity,)
                nbytes = int(np.prod(shape, dtype=np.int64)) * 8
                try:
                    block = shared_memory.SharedMemory(
                        create=True, size=nbytes
                    )
                    blocks[tile] = block
                    future = pool.executor.submit(
                        tile_worker.fetch_tile,
                        explorer.space, lo, hi, block.name, shape,
                    )
                except BrokenProcessPool:
                    # The pool is dead; stop dispatching and retire it
                    # so the next explorer spawns a fresh one (reaped
                    # once every in-flight batch releases it).
                    broken = True
                    _retire_pool(pool)
                    tasks[tile] = ("fetch", (lo, hi))
                    continue
                except OSError:
                    # shm exhaustion or similar: the pool itself is
                    # healthy, but this batch degrades in-process.
                    broken = True
                    tasks[tile] = ("fetch", (lo, hi))
                    continue
                tasks[tile] = ("future", (future, lo, hi, shape, nbytes))
            for tile in pending:
                kind, payload = tasks[tile]
                if kind == "tensor":
                    tensor = payload
                elif kind == "future":
                    future, lo, hi, shape, nbytes = payload
                    try:
                        delta = future.result()
                    except (BrokenProcessPool, OSError, CancelledError):
                        # CancelledError: a shutdown raced this batch
                        # (interpreter exit); degrade like a pool break.
                        _retire_pool(pool)
                        fallbacks += 1
                        tensor = self._fetch_fallback(lo, hi)
                    else:
                        layer.merge_stats(delta)
                        worker_exec_s += delta.execution_time_s
                        shm_bytes += nbytes
                        dispatched += 1
                        view = tile_worker.shm_tensor(blocks[tile], shape)
                        if explorer.cache is not None:
                            # The cache may retain the array past the
                            # block's unlink; hand it an owned copy.
                            view = np.array(
                                view, dtype=np.float64, copy=True
                            )
                        tensor = explorer._store_tile(lo, hi, view)
                else:  # "fetch": never dispatched (pool broke early)
                    lo, hi = payload
                    fallbacks += 1
                    tensor = self._fetch_fallback(lo, hi)
                stitch_started = time.perf_counter()
                explorer._materialize_tile(tile, tensor=tensor)
                stitch_s += time.perf_counter() - stitch_started
                block = blocks.pop(tile, None)
                if block is not None:
                    _release_block(block)
        finally:
            for entry in tasks.values():
                if entry[0] == "future":
                    entry[1][0].cancel()
            for block in blocks.values():
                _release_block(block)
            blocks.clear()
        ipc_s = 0.0
        if dispatched:
            # The batch's parent-side overhead: wall time minus the
            # stitching we timed and the workers' own execution spread
            # across the pool — a coarse but monotone per-batch IPC
            # estimate for the plan calibration.
            wall = time.perf_counter() - started
            effective = min(self.workers, dispatched)
            ipc_s = max(wall - stitch_s - worker_exec_s / effective, 0.0)
        layer.count_process_tiles(
            tiles=dispatched,
            fallbacks=fallbacks,
            shm_bytes=shm_bytes,
            ipc_s=ipc_s,
        )
        layer.count_parallel_tiles(dispatched)

    def _fetch_fallback(self, lo: Coords, hi: Coords) -> np.ndarray:
        """In-process fetch for a tile the pool could not deliver (the
        cache was already checked and missed)."""
        explorer = self.explorer
        tensor = explorer.layer.execute_grid_tile(
            explorer.prepared, explorer.space, lo, hi
        )
        return explorer._store_tile(lo, hi, tensor)


def _release_block(block: shared_memory.SharedMemory) -> None:
    """Close + unlink an owned shared-memory block, tolerating repeats."""
    block.close()
    try:
        block.unlink()
    except FileNotFoundError:
        pass


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
    "ProcessTileScheduler",
    "TiledGridExplorer",
    "TileScheduler",
    "prefix_combine",
    "shutdown_process_pools",
    "tile_prefix_combine",
    "tile_shape_for",
]
