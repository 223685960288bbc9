"""The ACQ query model: tables, predicates, and an aggregate constraint.

This is the in-memory object the SQL dialect of section 2.1 binds to:

.. code-block:: sql

    SELECT * FROM t1, t2
    CONSTRAINT AGG(attr) Op X
    WHERE P1 AND P2 NOREFINE AND ...

``NOREFINE`` predicates are carried with ``refinable=False``; the
*refinable* predicates, in declaration order, are the dimensions of the
refined space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.aggregates import AggregateSpec
from repro.core.predicate import (
    CategoricalPredicate,
    JoinPredicate,
    Predicate,
    SelectPredicate,
)
from repro.exceptions import QueryModelError


class ConstraintOp(enum.Enum):
    """Comparison operator of the aggregate constraint.

    The paper's expansion problem uses ``=``, ``>=`` and ``>``;
    ``<=``/``<`` select the contraction extension (section 7.2).
    """

    EQ = "="
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    @classmethod
    def parse(cls, text: str) -> "ConstraintOp":
        for op in cls:
            if op.value == text:
                return op
        raise QueryModelError(f"unknown constraint operator: {text!r}")

    @property
    def is_expansion(self) -> bool:
        return self in (ConstraintOp.EQ, ConstraintOp.GE, ConstraintOp.GT)


@dataclass(frozen=True)
class AggregateConstraint:
    """``CONSTRAINT AGG(attribute) Op X`` — paper section 2.1.

    ``target`` is the expected aggregate value ``Aexp`` (a positive
    number per the paper's grammar).
    """

    spec: AggregateSpec
    op: ConstraintOp
    target: float

    def __post_init__(self) -> None:
        if self.target < 0:
            raise QueryModelError("constraint target X must be a positive number")

    def describe(self) -> str:
        # 12 significant digits: enough that format -> parse round-trips
        # exactly for any target a user plausibly types.
        return f"{self.spec.describe()} {self.op.value} {self.target:.12g}"


@dataclass(frozen=True)
class Query:
    """An aggregation constrained query ``Q = P_1 ^ ... ^ P_n``.

    Attributes:
        name: label used in reports.
        tables: relations in the FROM clause.
        predicates: every predicate, refinable or not, in declaration
            order.
        constraint: the aggregate constraint.
    """

    name: str
    tables: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    constraint: AggregateConstraint
    extra_constraints: tuple[AggregateConstraint, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise QueryModelError("query needs at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise QueryModelError("duplicate table in FROM clause")
        names = [predicate.name for predicate in self.predicates]
        if len(set(names)) != len(names):
            raise QueryModelError(f"duplicate predicate names: {names}")
        table_set = set(self.tables)
        for predicate in self.predicates:
            for table in _predicate_tables(predicate):
                if table not in table_set:
                    raise QueryModelError(
                        f"predicate {predicate.name!r} references table "
                        f"{table!r} not in FROM clause"
                    )

    @classmethod
    def build(
        cls,
        name: str,
        tables: Sequence[str],
        predicates: Sequence[Predicate],
        constraint: AggregateConstraint,
        extra_constraints: Sequence[AggregateConstraint] = (),
    ) -> "Query":
        return cls(
            name,
            tuple(tables),
            tuple(predicates),
            constraint,
            tuple(extra_constraints),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def constraints(self) -> tuple[AggregateConstraint, ...]:
        """All aggregate constraints, primary first.

        A multi-constraint ACQ (``CONSTRAINT c1 AND c2 ...``) is a
        conjunction: a refined query satisfies the ACQ only when every
        constraint's aggregate error is within delta. The first
        constraint's query defines the refined space, and the rules
        that hold for one constraint only (the EQ layer early stop, the
        section 7.2 prune, repartitioning) switch off when there are
        extras. The driver reads every constraint at each examined grid
        point, each through its own Explore engine.
        """
        return (self.constraint,) + self.extra_constraints

    @property
    def refinable_predicates(self) -> tuple[Predicate, ...]:
        """The d flexible predicates — the refined space dimensions."""
        return tuple(p for p in self.predicates if p.refinable)

    @property
    def fixed_predicates(self) -> tuple[Predicate, ...]:
        """NOREFINE predicates, applied verbatim by the backends."""
        return tuple(p for p in self.predicates if not p.refinable)

    @property
    def dimensionality(self) -> int:
        return len(self.refinable_predicates)

    @property
    def join_predicates(self) -> tuple[JoinPredicate, ...]:
        return tuple(
            p for p in self.predicates if isinstance(p, JoinPredicate)
        )

    @property
    def select_predicates(self) -> tuple[SelectPredicate, ...]:
        return tuple(
            p for p in self.predicates if isinstance(p, SelectPredicate)
        )

    @property
    def categorical_predicates(self) -> tuple[CategoricalPredicate, ...]:
        return tuple(
            p for p in self.predicates if isinstance(p, CategoricalPredicate)
        )

    @property
    def weights(self) -> tuple[float, ...]:
        """Weights of the refinable predicates (section 7.1 preferences)."""
        return tuple(p.weight for p in self.refinable_predicates)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_constraint(self, constraint: AggregateConstraint) -> "Query":
        return replace(self, constraint=constraint)

    def with_only_constraint(self, constraint: AggregateConstraint) -> "Query":
        """Single-constraint view: replace the primary, drop the extras.

        The driver prepares each extra constraint of a multi-constraint
        ACQ from this view and reads it through its own Explore engine,
        over the primary's refined space; the corpus oracle evaluates
        each constraint through it too.
        """
        return replace(self, constraint=constraint, extra_constraints=())

    def with_predicates(self, predicates: Sequence[Predicate]) -> "Query":
        return replace(self, predicates=tuple(predicates))

    def describe(self) -> str:
        lines = [f"SELECT * FROM {', '.join(self.tables)}"]
        lines.append(
            "CONSTRAINT "
            + " AND ".join(c.describe() for c in self.constraints)
        )
        conditions = []
        for predicate in self.predicates:
            text = predicate.describe()
            if not predicate.refinable:
                text += " NOREFINE"
            conditions.append(text)
        if conditions:
            lines.append("WHERE " + "\n  AND ".join(conditions))
        return "\n".join(lines)


def _predicate_tables(predicate: Predicate) -> set[str]:
    if isinstance(predicate, SelectPredicate):
        return predicate.expr.tables()
    if isinstance(predicate, JoinPredicate):
        return predicate.left.tables() | predicate.right.tables()
    return predicate.column.tables()
