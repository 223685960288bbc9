"""Grid Explore: the cell grid read in growing QScore balls + prefix passes.

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

One engine, :class:`GridExplorer`, reads only the cells the
traversal's QScore order has reached, in growing QScore balls, one
backend pass per shell of the ball, and reruns the prefix passes over
the ball's bounding box. The materialized mode is the ball whose first
read is the whole grid: one pass with no shell filter, whose finished
*block* tensor a :class:`~repro.core.grid_cache.GridTensorCache` keeps
(kind ``"blocks"``), so constraint sweeps and warm replays skip Explore
entirely — no backend pass *and* no prefix passes. With a persistent
cache tier the float block tensors survive across processes. Once a
ball's bounding box would exceed the engine's cell cap, the search goes
on in a per-cell :class:`~repro.core.explore.Explorer` seeded with the
ball's sub-aggregates.

See ``docs/EXPLORE_MODES.md`` for the mode contract and when the
driver picks each path.
"""

from __future__ import annotations

import math
from functools import cached_property
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
from repro.core.explore import Explorer, SubAggregateStore
from repro.core.grid_cache import GridTensorCache
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import EvaluationLayer, PreparedQuery

Coords = tuple[int, ...]

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


class GridExplorer:
    """Explore engine over a QScore ball grown one backend pass a shell.

    The traversal reads grid queries in non-decreasing QScore, and a
    QScore never falls as a coordinate grows, so the down-set of a grid
    query with QScore <= ``B`` (every cell its block state folds) lies
    in the ball ``{cell QScore <= B}``. The engine keeps the cell tensor
    of the ball over its bounding box ``[0, hi]``, with the identity
    state in the box's cells outside the ball, and that box's block
    tensor from :func:`prefix_combine`. Inside the ball each block
    state equals the serial engine's: the same cell states fold in the
    same order.

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

    With ``whole`` set (the materialized plan) the first read is the
    whole grid, one pass with no shell filter, and no later read grows
    the ball. Only that read consults ``cache``: it looks the block
    tensor up, single-flights a miss and stores what it computed, so N
    threads missing the same grid execute one pass. A pass that raises
    aborts the flight, and the parked threads contend to lead. Shells
    never touch the cache.

    A ball whose bounding box would hold more than ``cell_cap`` cells is
    never allocated: that read and every later one go to a per-cell
    :class:`~repro.core.explore.Explorer` whose store answers the
    ball's cells from its prefix stages, without a backend call, so
    the search goes on with Algorithm 3 itself (:attr:`mode` turns
    ``incremental``).

    ``cells_executed`` counts the cells the backend computed: the
    ball's (0 for a cached whole grid), plus one per cell the per-cell
    engine executes after a handover. ``cells_skipped`` stays 0.
    """

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
        cell_cap: float = math.inf,
        whole: bool = False,
        cache: Optional[GridTensorCache] = None,
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.cell_cap = cell_cap
        self.whole = whole
        self.cache = cache
        self.bound: Optional[float] = None
        self.cells_skipped = 0
        self.incremental: Optional[Explorer] = None
        self._ball_cells = 0
        self._hi: Coords = ()
        self._cells: Optional[np.ndarray] = None
        self._blocks: Optional[np.ndarray] = None

    @property
    def cells_executed(self) -> int:
        if self.incremental is None:
            return self._ball_cells
        return self._ball_cells + self.incremental.cells_executed

    @property
    def mode(self) -> str:
        """``materialized`` or ``shells``, and ``incremental`` once the
        reads went cell by cell."""
        if self.incremental is not None:
            return "incremental"
        return "materialized" if self.whole else "shells"

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
        ``block_state`` reads. After a handover each point is read as
        it is pulled.
        """
        points = np.asarray(coords_list, dtype=np.intp).reshape(
            -1, self.space.d
        )
        if not len(points):
            return
        self._reach(points)
        if self.incremental is not None:
            yield from self.incremental.compute_aggregates(coords_list)
            return
        states = self._blocks[tuple(points.T)]
        if states.dtype != object:
            states = map(tuple, states.tolist())
        yield from map(self.aggregate.finalize, states)

    def block_state(self, coords: Sequence[int]) -> AggState:
        """Aggregate state of the full query at ``coords`` (``O_{d+1}``)."""
        key = tuple(int(coord) for coord in coords)
        self._reach(np.array([key], dtype=np.intp))
        if self.incremental is not None:
            return self.incremental.block_state(key)
        if self._blocks.dtype == object:
            return self._blocks[key]
        return tuple(float(value) for value in self._blocks[key])

    def prime_cells(self, coords_list: Sequence[Sequence[int]]) -> int:
        """No-op, returns 0: the ball grows when a read reaches it. Kept
        because the benchmark tracer (``perfbench/tracing.py``) wraps
        it by name."""
        return 0

    # -- the ball ------------------------------------------------------
    @cached_property
    def _axes(self) -> list[np.ndarray]:
        """Each axis' QScores, which bound the ball's box along that
        axis; built at the first shell read."""
        origin = self.space.origin
        return [
            self.space.box_qscores(
                origin, origin[:axis] + (limit,) + origin[axis + 1:]
            ).ravel()
            for axis, limit in enumerate(self.space.max_coords)
        ]

    @cached_property
    def _max_qscore(self) -> float:
        """The grid's largest QScore, which clamps every ball bound."""
        top = self.space.max_coords
        return float(self.space.box_qscores(top, top).item())

    def _reach(self, points: np.ndarray) -> None:
        """Grow the ball by one shell to hold ``points`` (an ``(n, d)``
        array), unless it holds them already or reads go cell by cell."""
        if self.incremental is not None or self.bound == math.inf:
            return
        if self.whole:
            bound, hi = math.inf, self.space.max_coords
        else:
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
            self._hand_over()
        elif self.whole:
            self._read_whole()
        else:
            self._read_shell(bound, hi)

    def _read_shell(self, bound: float, hi: Coords) -> None:
        """One backend pass of the cells in ``(self.bound, bound]`` over
        ``[0, hi]``, then the prefix passes over that box."""
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
        self._blocks = prefix_combine(cells, self.aggregate)
        self._cells, self._hi = cells, hi
        self._ball_cells += int(
            np.count_nonzero((qscores > lower) & (qscores <= bound))
        )
        self.bound = bound

    def _read_whole(self) -> None:
        """The whole grid's block tensor: a cache hit, or one backend
        pass and the prefix passes, single-flighted through the cache.
        A read the cache could not serve counts one cache miss on the
        layer."""
        origin, hi = self.space.origin, self.space.max_coords
        key = flight = None
        if self.cache is not None:
            key = GridTensorCache.key_for(
                self.layer, self.prepared.query, self.space
            )
            blocks, tier, flight = self.cache.lookup_or_lead(key)
            if flight is None:
                self.layer.count_cache_event(
                    True, int(blocks.nbytes),
                    persistent=tier == "persistent", block=True,
                )
        if key is None or flight is not None:
            try:
                cells = self.layer.execute_grid_tile(
                    self.prepared, self.space, origin, hi
                )
                blocks = prefix_combine(cells, self.aggregate)
            except BaseException:
                if flight is not None:
                    self.cache.abort_flight(key)
                raise
            if flight is not None:
                blocks = self.cache.complete_flight(key, blocks)
                self.layer.count_cache_event(False)
            self._ball_cells = self.space.grid_size
        self._blocks, self._hi, self.bound = blocks, hi, math.inf

    def _hand_over(self) -> None:
        """Go on cell by cell: a per-cell Explorer whose store holds the
        ball's sub-aggregates, read from the ball's cell tensor with no
        backend call."""
        store = SubAggregateStore()
        if self._cells is not None:
            qscores = self.space.box_qscores(self.space.origin, self._hi)
            stages = [
                prefix_combine(self._cells, self.aggregate, passes)
                for passes in range(self.space.d + 1)
            ]
            store = _BallStore(stages, qscores <= self.bound)
        self.incremental = Explorer(
            self.layer, self.prepared, self.space, self.aggregate,
            store=store,
        )
        self._cells = self._blocks = None


class TiledGridExplorer(GridExplorer):
    """The grid engine under its former tiled name, and nothing more.

    The benchmark tracer (``perfbench/tracing.py``) wraps
    ``compute_aggregate`` and ``prime_cells`` on this class by name,
    so the name stays; no code builds one.
    """


class _BallStore(SubAggregateStore):
    """The per-cell store of a handed-over ball: the sub-aggregates of
    each ball cell come from the ball's prefix stages, and the states
    the per-cell engine computes past the ball go in the dict.

    ``stages[i]`` holds ``O_{i+1}`` over the ball's bounding box (the
    cell tensor after ``i`` prefix passes); ``ball`` marks the box's
    cells inside the ball, the only ones whose stages are exact.
    """

    def __init__(self, stages: list[np.ndarray], ball: np.ndarray) -> None:
        super().__init__()
        self._stages = stages
        self._ball = ball

    def _holds(self, coords: Coords) -> bool:
        return all(
            coord < extent for coord, extent in zip(coords, self._ball.shape)
        ) and bool(self._ball[coords])

    def get(self, coords: Coords) -> list[AggState]:
        if not self._holds(coords):
            return super().get(coords)
        return [
            stage[coords] if stage.dtype == object
            else tuple(float(value) for value in stage[coords])
            for stage in self._stages
        ]

    def __contains__(self, coords: object) -> bool:
        return self._holds(coords) or super().__contains__(coords)


# ---------------------------------------------------------------------------
# Prefix passes


def prefix_combine(
    tensor: np.ndarray,
    aggregate: OSPAggregate,
    passes: Optional[int] = None,
) -> np.ndarray:
    """Prefix passes over a cell tensor: its block tensor.

    Runs the cumulative pass along each of the first ``passes`` axes
    (all of them by default), so the result holds ``O_{passes+1}`` —
    the block states after every pass. The vectorized aggregates use
    the commutative IEEE op the serial recurrence folds with, generic
    aggregates ``combine(current, accumulated)``; either way the
    result is bit-identical to the serial engine's. The blocks of a
    user-defined aggregate are an object array of state tuples. The
    input tensor is never written.
    """
    axes = range(tensor.ndim - 1 if passes is None else passes)
    ops = _vector_ops(aggregate)
    if ops is None:
        return _generic_prefix_combine(tensor, aggregate, axes)
    work = np.array(tensor, dtype=np.float64, copy=True)
    for axis in axes:
        ops(work, axis)
    return work


def _vector_ops(aggregate: OSPAggregate):
    """In-place accumulate along one axis for built-in aggregates.

    None for aggregates without a commutative vectorized form — they
    take the generic object-array fold.
    """
    if isinstance(aggregate, (CountAggregate, SumAggregate, AvgAggregate)):
        return lambda a, axis: np.cumsum(a, axis=axis, out=a)
    if isinstance(aggregate, MaxAggregate):
        return lambda a, axis: np.maximum.accumulate(a, axis=axis, out=a)
    if isinstance(aggregate, MinAggregate):
        return lambda a, axis: np.minimum.accumulate(a, axis=axis, out=a)
    return None


def _generic_prefix_combine(
    tensor: np.ndarray, aggregate: OSPAggregate, axes: Sequence[int]
) -> np.ndarray:
    """Prefix fold for user-defined aggregates, serial operand order."""
    if tensor.dtype == object:
        states = tensor.copy()
    else:
        states = np.empty(tensor.shape[:-1], dtype=object)
        for index in np.ndindex(states.shape):
            states[index] = tuple(float(value) for value in tensor[index])
    for axis in axes:
        length = states.shape[axis]
        rest = states.shape[:axis] + states.shape[axis + 1:]
        for index in np.ndindex(rest):
            line = states[index[:axis] + (slice(None),) + index[axis:]]
            for k in range(1, length):
                line[k] = aggregate.combine(line[k], line[k - 1])
    return states


__all__ = [
    "BALL_GROWTH",
    "BOUND_SLACK",
    "GridExplorer",
    "TiledGridExplorer",
    "prefix_combine",
]
