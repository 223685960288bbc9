"""The evaluation-layer interface (paper section 3, Figure 2).

ACQUIRE "delegates all actual query execution tasks to an evaluation
layer, which in this case is Postgres. However, the evaluation layer is
modular and can be replaced." This module defines that seam: the
abstract :class:`EvaluationLayer` plus the instrumentation every
implementation shares.

Execution requests come in five shapes:

* *cell queries* — the highly selective unit of the Explore phase:
  tuples whose first admitting level on every dimension is the grid
  cell's coordinate (:meth:`EvaluationLayer.execute_cell`;
  :func:`first_levels` is the admission rule every exact layer shares);
* *grid passes* — the cell tensor of an inclusive box of the grid in
  one pass: a rectangular box of it
  (:meth:`EvaluationLayer.execute_grid_tile`, the grid Explore
  engine's entry point, whose materialized box is the whole grid) or
  the whole grid (:meth:`EvaluationLayer.execute_grid`), optionally
  restricted to the cells of one QScore shell. Both are thin adapters
  over one primitive, :meth:`EvaluationLayer._grid_pass`, which a
  backend overrides to answer a box in a single pass; the base
  implementation assembles the box from per-cell queries so any
  third-party layer works (see ``docs/EXPLORE_MODES.md``);
* *box queries* — a full refined query at an arbitrary (possibly
  off-grid) PScore vector (:meth:`EvaluationLayer.execute_box`); used
  by contraction's grid reads (one per constraint of the ACQ) and every
  baseline technique;
* *box readers* — many box queries inside one outer box
  (:meth:`EvaluationLayer.box_reader`): the repartitioning step opens
  one per overshooting cell and answers its bisection probes through
  it. SQLite reads the outer box's rows once, counted as one box query,
  and answers each probe from them; the base class, which memory keeps,
  answers each probe with its own :meth:`~EvaluationLayer.execute_box`;
* *top-k admission* — order candidate tuples by total refinement
  distance and admit the first k; used by the Top-k baseline.

All are instrumented (queries issued, rows scanned, execution time,
grid passes) so the harness can report machine-independent work
alongside wall-clock time.

Per-request attribution: a layer shared by concurrent drivers keeps
one global ``stats`` object, so snapshot/delta accounting would bleed
one request's counters into another's report. Drivers therefore open a
:meth:`EvaluationLayer.request_scope` around each search: the scope is
a private :class:`ExecutionStats` registered in a ``contextvars``
context variable, and every counting seam credits the layer total
*and* every scope active on the calling thread (all under
``_stats_lock``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
)

import numpy as np

from repro.exceptions import EngineError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.aggregates import AggState, OSPAggregate
    from repro.core.predicate import Predicate
    from repro.core.query import Query
    from repro.core.refined_space import RefinedSpace

#: ``(lower, upper)``: the grid cells whose QScore lies in
#: ``(lower, upper]``, the cells one shell read of the grid engine needs.
Shell = tuple[float, float]


@dataclass
class ExecutionStats:
    """Counters accumulated by an evaluation layer.

    ``queries_executed`` counts physical backend round trips;
    ``cell_queries``/``box_queries`` the logical requests of each kind,
    and ``grid_materializations``/``grid_cells`` grid passes (one round
    trip computing every cell of a refined space, of one rectangular
    box of it, or of one QScore shell, whose cells alone count in
    ``grid_cells``). ``cache_hits``/``cache_misses``/``cache_bytes``
    track :class:`~repro.core.grid_cache.GridTensorCache` lookups made
    on this layer's behalf; a hit serves ``cache_bytes`` bytes of a
    finished block tensor, which skips the backend pass *and* the d
    prefix passes.
    """

    queries_executed: int = 0
    cell_queries: int = 0
    box_queries: int = 0
    grid_materializations: int = 0
    grid_cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    rows_scanned: int = 0
    execution_time_s: float = 0.0

    def snapshot(self) -> "ExecutionStats":
        return replace(self)

    def since(self, earlier: "ExecutionStats") -> "ExecutionStats":
        """Counter deltas relative to an earlier snapshot.

        Computed over every dataclass field so newly added counters can
        never silently drift out of the delta.
        """
        return ExecutionStats(
            **{
                field.name: getattr(self, field.name)
                - getattr(earlier, field.name)
                for field in fields(self)
            }
        )


#: Per-request stat scopes active on the current thread/context. Each
#: entry is an :class:`ExecutionStats` private to one in-flight driver
#: request; counting seams credit every active scope in addition to the
#: layer's global totals.
_ACTIVE_SCOPES: contextvars.ContextVar[tuple[ExecutionStats, ...]] = (
    contextvars.ContextVar("repro_stat_scopes", default=())
)


def _sinks(stats: "ExecutionStats") -> tuple["ExecutionStats", ...]:
    """``stats`` plus every request scope active on the calling thread.

    Counting methods apply each increment to all sinks while holding
    ``_stats_lock``, so per-request attribution can never drift from
    the layer's global totals. Callers pass the already-read layer
    ``stats`` object; this helper only consults the context variable.
    """
    return (stats,) + _ACTIVE_SCOPES.get()


@dataclass
class TopKAdmission:
    """Result of a top-k-by-refinement-distance request.

    ``admitted`` is the number of tuples returned (== k unless fewer
    candidates exist); ``max_scores`` is the per-dimension maximum
    PScore among admitted tuples — the bounding refined query implied
    by the selected tuple set, used to assign Top-k a refinement score
    (paper Figure 8c compares refinement scores across methods).
    """

    admitted: int
    max_scores: tuple[float, ...]


class PreparedQuery(Protocol):
    """Marker protocol for backend-specific prepared state."""

    query: Query


class _Timer:
    """Context manager adding elapsed time to a stats object."""

    def __init__(
        self, stats: ExecutionStats, lock: Optional[threading.Lock] = None
    ) -> None:
        self._stats = stats
        self._lock = lock
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        scopes = _ACTIVE_SCOPES.get()
        if self._lock is None:
            self._stats.execution_time_s += elapsed
            for scope in scopes:
                scope.execution_time_s += elapsed
        else:
            with self._lock:
                self._stats.execution_time_s += elapsed
                for scope in scopes:
                    scope.execution_time_s += elapsed


class EvaluationLayer:
    """Abstract evaluation layer; see module docstring.

    ``dim_caps`` passed to :meth:`prepare` bound the refinement each
    dimension can ever receive (from predicate limits and the driver's
    configuration); backends may use them to bound materialization,
    e.g. the half-width of a relaxed band join.
    """

    def __init__(self) -> None:
        self.stats = ExecutionStats()
        # Guards counter updates from concurrent drivers (service
        # workers sharing one layer).
        self._stats_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def prepare(
        self, query: Query, dim_caps: Optional[Sequence[float]] = None
    ) -> PreparedQuery:
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources (connections, reader snapshots).

        Safe to call more than once. The base class holds none.
        """

    def useful_max_scores(self, prepared: PreparedQuery) -> list[float]:
        """Per-dimension maximum *useful* PScore.

        Expanding a predicate past the observed attribute domain admits
        no new tuples, so the refined-space grid is clipped at these
        scores. Backends return ``math.inf`` for dimensions they cannot
        bound; the driver then falls back to its configured cap.
        """
        raise NotImplementedError

    # -- execution --------------------------------------------------------
    def execute_cell(
        self,
        prepared: PreparedQuery,
        space: RefinedSpace,
        coords: Sequence[int],
    ) -> AggState:
        """Aggregate state of the grid cell at ``coords``."""
        raise NotImplementedError

    def execute_cells(
        self,
        prepared: PreparedQuery,
        space: RefinedSpace,
        coords_list: Sequence[Sequence[int]],
    ) -> list[AggState]:
        """Aggregate states of many grid cells, in input order: one
        :meth:`execute_cell` each. The base-class grid pass assembles
        its tensor through this loop."""
        return [
            self.execute_cell(prepared, space, tuple(int(c) for c in coords))
            for coords in coords_list
        ]

    def execute_grid(
        self, prepared: PreparedQuery, space: RefinedSpace
    ) -> np.ndarray:
        """Cell-aggregate tensor of the *entire* refined-space grid.

        Returns a float64 tensor of shape
        ``(*[m + 1 for m in space.max_coords], state_arity)`` whose
        entry at grid coordinates ``u`` is the aggregate state of the
        cell at ``u`` (empty cells hold the aggregate's identity state):
        one :meth:`_grid_pass` over the full box, which counts like
        the materialized Explore engine's one whole-grid read
        (``docs/EXPLORE_MODES.md``).

        Callers are responsible for bounding ``space.grid_size`` (the
        driver's ``materialize_cell_cap``) — a refined space can be
        astronomically large.
        """
        return self._grid_pass(prepared, space, space.origin, space.max_coords)

    def execute_grid_tile(
        self,
        prepared: PreparedQuery,
        space: RefinedSpace,
        lo: Sequence[int],
        hi: Sequence[int],
        shell: Optional[Shell] = None,
    ) -> np.ndarray:
        """Cell-aggregate tensor of the rectangular subgrid ``[lo, hi]``.

        ``lo`` and ``hi`` are inclusive per-dimension grid coordinates;
        the returned float64 tensor has shape
        ``(*[hi_i - lo_i + 1], state_arity)`` and its entry at local
        offset ``u - lo`` is the aggregate state of the cell at ``u``.
        With ``shell=(lower, upper)`` only the cells whose
        :meth:`~repro.core.refined_space.RefinedSpace.box_qscores` value
        lies in ``(lower, upper]`` are computed; every other cell holds
        the aggregate's identity state. Validates the box, then runs one
        :meth:`_grid_pass` over it — the bulk entry point of the grid
        Explore engines (``docs/EXPLORE_MODES.md``).
        """
        lo, hi = _check_tile_bounds(space, lo, hi)
        return self._grid_pass(prepared, space, lo, hi, shell=shell)

    def _grid_pass(
        self,
        prepared: PreparedQuery,
        space: RefinedSpace,
        lo: Sequence[int],
        hi: Sequence[int],
        shell: Optional[Shell] = None,
    ) -> np.ndarray:
        """Cell tensor of the inclusive box ``[lo, hi]``, or of its
        cells in ``shell``, counted as one grid pass
        (:meth:`_count_grid`).

        The one grid primitive a backend overrides: every computed entry
        must equal :meth:`execute_cell` at the same coordinates, with
        empty cells and cells outside the shell holding the aggregate's
        identity state. This fallback runs :meth:`execute_cells` over
        the box's cells (the shell's only, given one), so a third-party
        layer that implements only :meth:`execute_cell` works.
        """
        shape = tuple(high - low + 1 for low, high in zip(lo, hi))
        coords_list = list(
            itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        )
        # itertools.product walks the box in C order, so a point's
        # position in the list is its cell's flat index.
        mask = shell_mask(space, lo, hi, shell)
        flat = np.flatnonzero(mask) if mask is not None else None
        if flat is not None:
            coords_list = [coords_list[index] for index in flat.tolist()]
        states = self.execute_cells(prepared, space, coords_list)
        identity = prepared.query.constraint.spec.aggregate.identity()
        tensor = np.empty(shape + (len(identity),), dtype=np.float64)
        tensor[...] = identity
        if states:
            rows = tensor.reshape(-1, len(identity))
            rows[slice(None) if flat is None else flat] = states
        # execute_cells already counted the physical round trips.
        self._count_grid(
            lo, hi, round_trip=False,
            cells=None if flat is None else len(states),
        )
        return tensor

    def execute_grid_tiles(
        self,
        prepared: PreparedQuery,
        space: RefinedSpace,
        boxes: Sequence[tuple[Sequence[int], Sequence[int]]],
    ) -> list[np.ndarray]:
        """Cell tensors of several rectangular subgrids: one
        :meth:`execute_grid_tile` per inclusive ``(lo, hi)`` box, in
        order.

        Nothing in the package calls this; it stays because the
        benchmark tracer (``perfbench/tracing.py``) wraps it by name on
        every backend class.
        """
        return [
            self.execute_grid_tile(prepared, space, lo, hi)
            for lo, hi in boxes
        ]

    def execute_box(
        self, prepared: PreparedQuery, scores: Sequence[float]
    ) -> AggState:
        """Aggregate state of the full refined query at ``scores``."""
        raise NotImplementedError

    def box_reader(
        self, prepared: PreparedQuery, outer: Sequence[float]
    ) -> Callable[[Sequence[float]], AggState]:
        """A function from a PScore vector inside the box ``outer``
        (componentwise at most ``outer``) to the aggregate state
        :meth:`execute_box` returns at it, refusing a vector of the
        wrong length as :meth:`execute_box` does.

        A backend overrides this to read the rows of ``outer`` once and
        answer every call from them; the repartitioning step asks it
        for all the bisection probes of one cell. This fallback answers
        each call with its own :meth:`execute_box`, so a layer that
        implements only ``execute_box`` works.
        """
        return functools.partial(self.execute_box, prepared)

    def execute_original(self, prepared: PreparedQuery) -> AggState:
        """Aggregate state of the unrefined query (all scores zero)."""
        dims = len(prepared.query.refinable_predicates)
        return self.execute_box(prepared, (0.0,) * dims)

    def topk_admission(
        self, prepared: PreparedQuery, k: int
    ) -> TopKAdmission:
        """Admit the k candidate tuples with smallest total refinement."""
        raise NotImplementedError

    def fetch_rows(
        self,
        prepared: PreparedQuery,
        scores: Sequence[float],
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Materialize the result tuples of a refined query.

        Returns dicts keyed by fully-qualified ``table.column`` names.
        This is the paper's note that "the corresponding result tuples
        can either be stored in main memory or paged to disk" made
        concrete: once the user picks one of ACQUIRE's alternatives,
        this returns its actual rows.
        """
        raise NotImplementedError

    # -- bookkeeping -------------------------------------------------------
    def request_scope(self) -> "contextlib.AbstractContextManager[ExecutionStats]":
        """Open a per-request stat scope on the calling context.

        Yields a private :class:`ExecutionStats` that accumulates
        exactly the backend work performed while the scope is active on
        the executing thread. Scopes nest: inner work credits every
        enclosing scope, mirroring what nested snapshot/delta windows
        reported.
        Drivers read the scope instead of ``stats.since(snapshot)`` so
        concurrent requests on a shared layer cannot attribute each
        other's work.
        """
        return self._request_scope()

    @contextlib.contextmanager
    def _request_scope(self) -> Iterator[ExecutionStats]:
        scope = ExecutionStats()
        token = _ACTIVE_SCOPES.set(_ACTIVE_SCOPES.get() + (scope,))
        try:
            yield scope
        finally:
            _ACTIVE_SCOPES.reset(token)

    def _count_rows(self, rows: int) -> None:
        """Record row accesses made outside a counted query round trip
        (data loads, candidate builds, grid/bitmap construction)."""
        with self._stats_lock:
            for stats in _sinks(self.stats):
                stats.rows_scanned += rows

    def _count_query(self, kind: str, rows: int = 0) -> None:
        with self._stats_lock:
            for stats in _sinks(self.stats):
                stats.queries_executed += 1
                stats.rows_scanned += rows
                if kind == "cell":
                    stats.cell_queries += 1
                elif kind == "box":
                    stats.box_queries += 1

    def _count_grid(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        rows: int = 0,
        round_trip: bool = True,
        cells: Optional[int] = None,
    ) -> None:
        """Record one grid pass over the inclusive box ``[lo, hi]``.

        ``round_trip=False`` is for the base-class fallback, whose
        physical round trips were already counted by
        :meth:`execute_cells`. ``cells`` is the number of cells a shell
        read of the box computed: ``grid_cells`` counts those.
        """
        if cells is None:
            cells = math.prod(h - l + 1 for l, h in zip(lo, hi))
        with self._stats_lock:
            for stats in _sinks(self.stats):
                if round_trip:
                    stats.queries_executed += 1
                stats.grid_materializations += 1
                stats.grid_cells += cells
                stats.rows_scanned += rows

    def count_cache_event(self, hit: bool, nbytes: int = 0) -> None:
        """Record one :class:`~repro.core.grid_cache.GridTensorCache`
        lookup made on this layer's behalf (the cache lives with the
        driver, but its effect — a saved backend pass — belongs in this
        layer's :class:`ExecutionStats` so harness deltas see it); a
        hit served ``nbytes`` bytes."""
        with self._stats_lock:
            for stats in _sinks(self.stats):
                if hit:
                    stats.cache_hits += 1
                    stats.cache_bytes += nbytes
                else:
                    stats.cache_misses += 1

    def _timed(self) -> _Timer:
        with self._stats_lock:
            return _Timer(self.stats, self._stats_lock)

    def reset_stats(self) -> None:
        with self._stats_lock:
            self.stats = ExecutionStats()


def grouped_cell_tensor(
    aggregate: "OSPAggregate",
    shape: Sequence[int],
    cells: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Cell tensor of a box of ``shape`` from rows bucketed into it.

    ``cells[i]`` is row ``i``'s C-order linear index into the box and
    ``values[i]`` its aggregate input. One stable sort groups the rows
    by cell and keeps their input order within each cell, so each
    group's :meth:`~repro.core.aggregates.OSPAggregate.lift` sees its
    values in the order a per-cell query extracts them; one fancy-index
    assignment then writes every group's state. Cells no row reaches
    hold the aggregate's identity state, so they finalize exactly as a
    query over an empty region would. Shape
    ``(*shape, state_arity)``, float64.
    """
    identity = aggregate.identity()
    tensor = np.empty(tuple(shape) + (len(identity),), dtype=np.float64)
    tensor[...] = identity
    if len(cells):
        order = np.argsort(cells, kind="stable")
        cells, values = cells[order], values[order]
        firsts = np.flatnonzero(np.diff(cells, prepend=-1))
        edges = firsts.tolist() + [len(cells)]
        states = [
            aggregate.lift(values[start:stop])
            for start, stop in zip(edges, edges[1:])
        ]
        tensor.reshape(-1, len(identity))[cells[firsts]] = states
    return tensor


def first_levels(
    predicate: "Predicate", keys: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Offset into ``scores``, rising PScores, of the first whose
    refined ``predicate`` admits each key; ``len(scores)`` for a key
    none admits.

    The one admission rule of every exact layer. A refined predicate
    admits a tuple exactly when its key (a select's expression value,
    a join's ``|left - right|``, a categorical value's roll-up
    distance) lies within the predicate's
    :meth:`~repro.core.predicate.SelectPredicate.key_bounds` at the
    score. An infinite bound is a comparison the refined SQL omits, so
    it admits every key, NULL (NaN) included; a finite one admits no
    NaN. Grid level ``c`` is score ``c * step``, and the cell at ``c``
    holds the tuples whose first level is ``c``. Each side's bounds
    only widen as the score rises, so one binary search per side finds
    the first level that side admits, and the later of the two admits
    both.
    """
    scores = np.asarray(scores, dtype=np.float64)
    lower, upper = predicate.key_bounds(scores)
    # A bound that does not move with the score comes back a float.
    zeros = np.zeros(len(scores))
    return np.maximum(
        _first_within(-(lower + zeros), -keys),
        _first_within(upper + zeros, keys),
    )


def _first_within(ladder: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the first entry of the non-decreasing ``ladder`` at or
    above each value. NaN sorts past every entry, so no entry admits a
    NaN value, unless the ladder reaches ``inf``: an omitted comparison,
    which admits NULL."""
    if len(ladder) and ladder[-1] == math.inf:
        values = np.where(np.isnan(values), math.inf, values)
    return np.searchsorted(ladder, values)


def admitted(
    predicate: "Predicate", keys: np.ndarray, score: float
) -> np.ndarray:
    """Which keys the refined ``predicate`` at ``score`` admits: those
    :func:`first_levels` puts at level 0 of the ladder ``[score]``,
    compared directly. An infinite bound is an omitted comparison."""
    lower, upper = predicate.key_bounds(score)
    if upper == math.inf:
        mask = np.ones(np.shape(keys), dtype=bool)
    else:
        mask = keys <= upper
    if lower != -math.inf:
        mask &= keys >= lower
    return mask


def check_box_arity(scores: Sequence[float], dims: int) -> None:
    """Raise :class:`EngineError` unless ``scores`` holds one PScore per
    refinable dimension."""
    if len(scores) != dims:
        raise EngineError(
            f"box arity {len(scores)} != dimensionality {dims}"
        )


def shell_mask(
    space: "RefinedSpace",
    lo: Sequence[int],
    hi: Sequence[int],
    shell: Optional[Shell],
) -> Optional[np.ndarray]:
    """Which cells of the inclusive box ``[lo, hi]`` lie in ``shell``:
    a boolean tensor of the box's shape, True where the cell's
    :meth:`~repro.core.refined_space.RefinedSpace.box_qscores` value
    lies in ``(lower, upper]``. None when there is no shell."""
    if shell is None:
        return None
    lower, upper = shell
    qscores = space.box_qscores(lo, hi)
    return (qscores > lower) & (qscores <= upper)


def _check_tile_bounds(
    space: "RefinedSpace", lo: Sequence[int], hi: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate inclusive tile bounds against the grid extent."""
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    if len(lo) != space.d or len(hi) != space.d:
        raise EngineError(
            f"tile bound arity ({len(lo)}, {len(hi)}) != "
            f"dimensionality {space.d}"
        )
    for l, h, limit in zip(lo, hi, space.max_coords):
        if not 0 <= l <= h <= limit:
            raise EngineError(
                f"tile bounds [{lo}, {hi}] outside grid extent "
                f"{space.max_coords}"
            )
    return lo, hi


__all__ = [
    "EvaluationLayer",
    "ExecutionStats",
    "PreparedQuery",
    "TopKAdmission",
    "admitted",
    "check_box_arity",
    "first_levels",
    "grouped_cell_tensor",
    "shell_mask",
]
