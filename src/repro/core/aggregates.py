"""OSP aggregates (paper section 2.6).

ACQUIRE supports aggregates with the *optimal substructure property*
(OSP): the aggregate of a containing query can be combined from
sub-query aggregates without touching the sub-query's tuples again.
COUNT, SUM, MIN and MAX satisfy OSP directly; AVG is decomposed into
(SUM, COUNT); STDDEV does not satisfy OSP and is rejected.

An aggregate's running value is a *state* — a small tuple of floats —
so that multi-part aggregates such as AVG fit the same interface.
The incremental aggregate computation of the Explore phase only ever
uses :meth:`OSPAggregate.identity`, :meth:`OSPAggregate.combine`,
:meth:`OSPAggregate.lift` and :meth:`OSPAggregate.finalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.engine.expression import Expression
from repro.exceptions import OSPViolationError, QueryModelError

#: Aggregate running state: a fixed-arity tuple of floats.
AggState = Tuple[float, ...]


def finalize_array(aggregate: "OSPAggregate", states: np.ndarray) -> np.ndarray:
    """``aggregate.finalize`` of many states, as a float64 array.

    ``states`` is an ``(n, arity)`` float array, or for a user-defined
    aggregate an object array of state tuples. The built-in aggregates
    finalize in numpy with the float operations of their ``finalize``,
    so each value is the one ``finalize`` returns; any other aggregate
    is finalized state by state.
    """
    vectorized = _ARRAY_FINALIZE.get(type(aggregate))
    if states.dtype == object:
        parts: Iterable = states
    elif vectorized is not None:
        return vectorized(states)
    else:
        parts = map(tuple, states.tolist())
    return np.fromiter(
        map(aggregate.finalize, parts), dtype=np.float64, count=len(states)
    )


class OSPAggregate:
    """Base class for aggregates with the optimal substructure property.

    Attributes:
        name: SQL-facing name (``COUNT``, ``SUM``...).
        needs_attribute: whether the aggregate takes an input column.
        monotone_expanding: True when expanding the query result set can
            only increase (or preserve) the finalized value. The driver
            uses this to decide whether overshoot repartitioning can
            converge by shrinking.
    """

    name: str = "?"
    needs_attribute: bool = True
    monotone_expanding: bool = False
    state_arity: int = 1

    # ------------------------------------------------------------------
    # OSP interface
    # ------------------------------------------------------------------
    def identity(self) -> AggState:
        """State of an empty result set."""
        raise NotImplementedError

    def combine(self, left: AggState, right: AggState) -> AggState:
        """Merge two disjoint sub-query states (the heart of OSP)."""
        raise NotImplementedError

    def lift(self, values: np.ndarray) -> AggState:
        """Compute the state of a base set of tuples from raw values.

        For COUNT the values array is only used for its length.
        """
        raise NotImplementedError

    def finalize(self, state: AggState) -> float:
        """Collapse a state to the user-visible aggregate value.

        Returns NaN for value-aggregates over empty sets (MIN/MAX/AVG).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # SQL backend hooks
    # ------------------------------------------------------------------
    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        """SQL aggregate expressions producing the state parts in order."""
        raise NotImplementedError

    def state_from_sql(self, row: tuple) -> AggState:
        """Convert a fetched SQL row (one column per state part) to a state."""
        return tuple(0.0 if value is None else float(value) for value in row)

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


class CountAggregate(OSPAggregate):
    """COUNT(*): the paper's running example."""

    name = "COUNT"
    needs_attribute = False
    monotone_expanding = True

    def identity(self) -> AggState:
        return (0.0,)

    def combine(self, left: AggState, right: AggState) -> AggState:
        return (left[0] + right[0],)

    def lift(self, values: np.ndarray) -> AggState:
        return (float(len(values)),)

    def finalize(self, state: AggState) -> float:
        return state[0]

    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        return ["COUNT(*)"]


class SumAggregate(OSPAggregate):
    """SUM(attr); monotone under expansion for non-negative attributes."""

    name = "SUM"
    monotone_expanding = True

    def identity(self) -> AggState:
        return (0.0,)

    def combine(self, left: AggState, right: AggState) -> AggState:
        return (left[0] + right[0],)

    def lift(self, values: np.ndarray) -> AggState:
        return (float(np.sum(values)) if len(values) else 0.0,)

    def finalize(self, state: AggState) -> float:
        return state[0]

    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        return [f"SUM({attribute_sql})"]


class MinAggregate(OSPAggregate):
    """MIN(attr). Identity is +inf; finalize maps empty to NaN."""

    name = "MIN"

    def identity(self) -> AggState:
        return (math.inf,)

    def combine(self, left: AggState, right: AggState) -> AggState:
        return (min(left[0], right[0]),)

    def lift(self, values: np.ndarray) -> AggState:
        return (float(np.min(values)) if len(values) else math.inf,)

    def finalize(self, state: AggState) -> float:
        return math.nan if math.isinf(state[0]) else state[0]

    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        return [f"MIN({attribute_sql})"]

    def state_from_sql(self, row: tuple) -> AggState:
        return (math.inf if row[0] is None else float(row[0]),)


class MaxAggregate(OSPAggregate):
    """MAX(attr); monotone under expansion."""

    name = "MAX"
    monotone_expanding = True

    def identity(self) -> AggState:
        return (-math.inf,)

    def combine(self, left: AggState, right: AggState) -> AggState:
        return (max(left[0], right[0]),)

    def lift(self, values: np.ndarray) -> AggState:
        return (float(np.max(values)) if len(values) else -math.inf,)

    def finalize(self, state: AggState) -> float:
        return math.nan if math.isinf(state[0]) else state[0]

    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        return [f"MAX({attribute_sql})"]

    def state_from_sql(self, row: tuple) -> AggState:
        return (-math.inf if row[0] is None else float(row[0]),)


class AvgAggregate(OSPAggregate):
    """AVG(attr), decomposed into (SUM, COUNT) exactly as in the paper."""

    name = "AVG"
    state_arity = 2

    def identity(self) -> AggState:
        return (0.0, 0.0)

    def combine(self, left: AggState, right: AggState) -> AggState:
        return (left[0] + right[0], left[1] + right[1])

    def lift(self, values: np.ndarray) -> AggState:
        if len(values) == 0:
            return (0.0, 0.0)
        return (float(np.sum(values)), float(len(values)))

    def finalize(self, state: AggState) -> float:
        total, count = state
        return math.nan if count == 0 else total / count

    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        return [f"SUM({attribute_sql})", f"COUNT({attribute_sql})"]


class UserDefinedAggregate(OSPAggregate):
    """A user-defined OSP aggregate built from plain callables.

    The paper supports "user defined aggregates that either satisfy the
    optimal substructure property or can be broken into functions that
    satisfy OSP" (Table 1, footnote 2). Supplying ``identity``,
    ``combine`` and ``lift`` is exactly that contract.
    """

    def __init__(
        self,
        name: str,
        identity: AggState,
        combine: Callable[[AggState, AggState], AggState],
        lift: Callable[[np.ndarray], AggState],
        finalize: Callable[[AggState], float] = lambda state: state[0],
        monotone_expanding: bool = False,
        sql_selects: Optional[Callable[[Optional[str]], list[str]]] = None,
    ) -> None:
        self.name = name.upper()
        self._identity = tuple(identity)
        self._combine = combine
        self._lift = lift
        self._finalize = finalize
        self.monotone_expanding = monotone_expanding
        self._sql_selects = sql_selects
        self.state_arity = len(self._identity)

    def identity(self) -> AggState:
        return self._identity

    def combine(self, left: AggState, right: AggState) -> AggState:
        return tuple(self._combine(left, right))

    def lift(self, values: np.ndarray) -> AggState:
        return tuple(self._lift(values))

    def finalize(self, state: AggState) -> float:
        return float(self._finalize(state))

    def sql_selects(self, attribute_sql: Optional[str]) -> list[str]:
        if self._sql_selects is None:
            raise OSPViolationError(
                f"user aggregate {self.name} has no SQL rendering; "
                "use the memory backend"
            )
        return self._sql_selects(attribute_sql)


def _first_part(states: np.ndarray) -> np.ndarray:
    return states[:, 0]


def _extreme(states: np.ndarray) -> np.ndarray:
    """MIN/MAX: an infinite state (the empty set's) finalizes to NaN."""
    values = states[:, 0]
    return np.where(np.isinf(values), np.nan, values)


def _mean(states: np.ndarray) -> np.ndarray:
    """AVG: total / count, NaN where the count is 0."""
    counts = states[:, 1]
    return np.divide(
        states[:, 0], counts, out=np.full(len(counts), np.nan),
        where=counts != 0,
    )


_ARRAY_FINALIZE = {
    CountAggregate: _first_part,
    SumAggregate: _first_part,
    MinAggregate: _extreme,
    MaxAggregate: _extreme,
    AvgAggregate: _mean,
}

COUNT = CountAggregate()
SUM = SumAggregate()
MIN = MinAggregate()
MAX = MaxAggregate()
AVG = AvgAggregate()

_BUILTINS: dict[str, OSPAggregate] = {
    aggregate.name: aggregate for aggregate in (COUNT, SUM, MIN, MAX, AVG)
}

#: Aggregates the paper explicitly calls out as lacking OSP.
_NON_OSP = {"STDDEV", "STDEV", "VARIANCE", "VAR", "MEDIAN", "PERCENTILE"}


def get_aggregate(name: str) -> OSPAggregate:
    """Look up a built-in aggregate by SQL name.

    Raises :class:`OSPViolationError` for known non-OSP aggregates
    (STDDEV et al., per paper section 2.6) and
    :class:`QueryModelError` for unknown names.
    """
    upper = name.upper()
    if upper in _NON_OSP:
        raise OSPViolationError(
            f"{upper} does not satisfy the optimal substructure property "
            "(paper section 2.6) and cannot be processed by ACQUIRE"
        )
    try:
        return _BUILTINS[upper]
    except KeyError:
        raise QueryModelError(f"unknown aggregate function: {name!r}") from None


@dataclass(frozen=True)
class AggregateSpec:
    """A concrete aggregate application: function plus input attribute.

    ``attribute`` is ``None`` only for COUNT(*).
    """

    aggregate: OSPAggregate
    attribute: Optional[Expression] = None

    def __post_init__(self) -> None:
        if self.aggregate.needs_attribute and self.attribute is None:
            raise QueryModelError(
                f"{self.aggregate.name} requires an input attribute"
            )

    def describe(self) -> str:
        inner = self.attribute.to_sql() if self.attribute is not None else "*"
        return f"{self.aggregate.name}({inner})"
