"""Phase II — Explore: incremental aggregate computation (paper section 5).

Every grid query ``Q'`` at coordinates ``u = (u_1 .. u_d)`` is
decomposed into ``d + 1`` sub-queries sharing ``u`` as their upper
corner (Equations 5-8): the *cell* (unit hyper-cube), the *pillar*,
the *wall*, ... up to the *block* (the whole query). Their aggregates
satisfy the recurrence (Equation 17)

    O_i(u) = O_{i-1}(u) + O_i(u_1, ..., u_{i-1} - 1, ..., u_d)

so once the cell aggregate is known, the block aggregate follows in d
constant-time combine steps from sub-aggregates stored at previously
visited grid points (Theorem 3 guarantees those points were visited
first). Only the cell is ever executed against the evaluation layer,
and every cell is executed at most once — the paper's work-sharing
guarantee.

Boundary handling: when ``u_{i-1} == 0`` the recurrence's second term
addresses coordinate ``-1`` — an empty region — so the aggregate
identity is used (equivalently ``O_i(u) = O_{i-1}(u)``).

:class:`BoxExplorer` is the engine of the contraction grid, which the
recurrence cannot serve: it reads each examined query with one box
query.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.core.aggregates import AggState, OSPAggregate
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import EvaluationLayer, PreparedQuery
from repro.exceptions import SearchError

Coords = tuple[int, ...]


class SubAggregateStore:
    """Stores, per visited grid query, its ``d + 1`` sub-aggregates.

    Index ``i`` of a stored list is the state of sub-query ``O_{i+1}``
    (index 0 = cell, index d = block). "The corresponding result tuples
    can either be stored in main memory or paged to disk" — we store
    only the aggregate states, as the paper's cost model assumes.
    """

    def __init__(self) -> None:
        self._store: dict[Coords, list[AggState]] = {}

    def put(self, coords: Coords, states: list[AggState]) -> None:
        self._store[coords] = states

    def get(self, coords: Coords) -> list[AggState]:
        try:
            return self._store[coords]
        except KeyError:
            raise SearchError(
                f"sub-aggregates for {coords} requested before computation; "
                "traversal violated containment order (Theorem 3)"
            ) from None

    def __contains__(self, coords: object) -> bool:
        return coords in self._store

    def __len__(self) -> int:
        return len(self._store)


class Explorer:
    """Computes grid-query aggregates incrementally (Algorithm 3).

    Args:
        layer: evaluation layer that executes cell queries.
        prepared: backend-prepared state for the query.
        space: the refined space grid.
        aggregate: the constraint's OSP aggregate.
        bitmap_index: optional empty-cell index (paper section 7.4);
            when it proves a cell empty, the identity state is used and
            no query is issued.
    """

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
        bitmap_index: Optional["SupportsEmptyCheck"] = None,
        store: Optional[SubAggregateStore] = None,
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.bitmap_index = bitmap_index
        # Any object with the SubAggregateStore interface works — e.g.
        # repro.core.store.PagedSubAggregateStore for disk paging.
        self.store = store if store is not None else SubAggregateStore()
        self.cells_executed = 0
        self.cells_skipped = 0

    def compute_aggregate(self, coords: Sequence[int]) -> float:
        """Finalized aggregate value of the grid query at ``coords``."""
        return self.aggregate.finalize(self.block_state(coords))

    def compute_aggregates(
        self, coords_list: Sequence[Sequence[int]]
    ) -> Iterator[float]:
        """Lazy ``compute_aggregate`` over a layer, one point per pull:
        a cell executes only when the driver examines its point."""
        return (self.compute_aggregate(coords) for coords in coords_list)

    def block_state(self, coords: Sequence[int]) -> AggState:
        """Aggregate state of the full query at ``coords`` (``O_{d+1}``)."""
        coords = tuple(int(coord) for coord in coords)
        if coords in self.store:
            return self.store.get(coords)[-1]
        states = self._compute_states(coords)
        self.store.put(coords, states)
        return states[-1]

    def _compute_states(self, coords: Coords) -> list[AggState]:
        """Algorithm 3: cell execution plus d combine steps."""
        aggregate = self.aggregate
        states: list[AggState] = [self._cell_state(coords)]
        for index in range(1, self.space.d + 1):
            # states[index] is O_{index+1}(u); the recurrence needs
            # O_{index+1} at the previous neighbour along dim index-1.
            dim = index - 1
            if coords[dim] == 0:
                previous: AggState = aggregate.identity()
            else:
                neighbour = (
                    coords[:dim] + (coords[dim] - 1,) + coords[dim + 1 :]
                )
                previous = self.store.get(neighbour)[index]
            states.append(aggregate.combine(states[index - 1], previous))
        return states

    def prime_cells(self, coords_list: Sequence[Sequence[int]]) -> int:
        """No-op: a cell executes when its grid query is examined.

        Returns 0. This engine and the grid engine keep this method
        only because the benchmark tracer (``perfbench/tracing.py``)
        wraps it by name.
        """
        return 0

    def _cell_state(self, coords: Coords) -> AggState:
        if self.bitmap_index is not None and self.bitmap_index.is_empty(coords):
            self.cells_skipped += 1
            return self.aggregate.identity()
        self.cells_executed += 1
        return self.layer.execute_cell(self.prepared, self.space, coords)


class BoxExplorer:
    """Explore engine that reads each grid query with one box query.

    It serves the contraction grid (paper section 7.2), whose traversal
    examines every query before the queries it contains, so the Eq. 17
    recurrence never has the stored sub-aggregates it would combine.
    Each examined point costs one
    :meth:`~repro.engine.backends.EvaluationLayer.execute_box`, except
    the origin: the driver reads it before its loop and examines it
    first, and it is read once. A box read executes no cell, so
    ``cells_executed`` and ``cells_skipped`` stay 0.
    """

    #: The ``explore_mode`` a search on this engine reports.
    mode = "box"

    def __init__(
        self,
        layer: EvaluationLayer,
        prepared: PreparedQuery,
        space: RefinedSpace,
        aggregate: OSPAggregate,
    ) -> None:
        self.layer = layer
        self.prepared = prepared
        self.space = space
        self.aggregate = aggregate
        self.cells_executed = 0
        self.cells_skipped = 0
        self._origin: Optional[float] = None

    def compute_aggregate(self, coords: Sequence[int]) -> float:
        """Finalized aggregate value of the grid query at ``coords``."""
        origin = tuple(coords) == self.space.origin
        if origin and self._origin is not None:
            return self._origin
        state = self.layer.execute_box(self.prepared, self.space.scores(coords))
        value = self.aggregate.finalize(state)
        if origin:
            self._origin = value
        return value

    def compute_aggregates(
        self, coords_list: Sequence[Sequence[int]]
    ) -> Iterator[float]:
        """Lazy ``compute_aggregate`` over a layer, one box per pull."""
        return map(self.compute_aggregate, coords_list)


class SupportsEmptyCheck:
    """Protocol for the section 7.4 bitmap index."""

    def is_empty(self, coords: Sequence[int]) -> bool:  # pragma: no cover
        raise NotImplementedError
