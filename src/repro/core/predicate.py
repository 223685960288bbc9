"""Predicates: functions plus intervals of acceptable values (paper 2.2).

Every predicate ``P_i`` is decomposed into a predicate function
``P_i^F`` (a monotonic :class:`~repro.engine.expression.Expression`
over relation attributes) and a predicate interval ``P_i^I`` of
acceptable function values. Refinement never touches the function —
only the interval — which is what lets select and join predicates share
one refinement algebra (paper 2.4):

* ``SelectPredicate`` — one-sided numeric predicates. Range predicates
  such as ``10 < y < 50`` are represented as *two* one-sided predicates
  (the SQL binder performs the rewrite), so each side refines
  independently. Equality selects (``p_size = 10``) use the POINT
  direction and expand symmetrically.
* ``JoinPredicate`` — ``Delta(f_left, f_right) <= tolerance``; for
  equi-joins the tolerance starts at 0 and the PScore denominator is
  fixed at 100 per the paper.
* ``CategoricalPredicate`` — the section 7.3 extension: refinement
  rolls an accepted value set up an ontology tree.

A refinement *score* is the paper's PScore: percent departure of the
refined interval from the original (Equation 1). The two directions of
translation both live here:

* ``interval_at(score)`` — PScore -> refined value interval, and
  ``key_bounds(score)`` — the bounds it puts on a tuple's *key* (a
  select's expression value, a join's ``|left - right|``, a categorical
  value's roll-up distance). A refined query admits a tuple exactly
  when its key lies within these bounds: every exact evaluation layer
  decides admission by this one comparison
  (:func:`repro.engine.backends.first_levels`);
* ``scores_of_values(values)`` — per-tuple minimal PScore needed to
  admit each tuple, which orders tuples by refinement (Top-k) and feeds
  the estimating layers; it never decides admission.

Scores are *signed*: positive scores expand the interval (the paper's
primary direction) and negative scores shrink it, which is how the
section 7.2 contraction extension reuses the same algebra. A tuple
comfortably inside the original interval therefore has a negative
minimal score — it keeps satisfying the predicate until the interval
has shrunk past it. "Satisfies the original query" is ``score <= 0``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core.interval import Interval
from repro.engine.expression import ColumnRef, Expression
from repro.exceptions import NotRefinableError, QueryModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ontology import OntologyTree

#: Denominator the paper fixes for equality join predicates.
JOIN_DENOMINATOR = 100.0


def _at_least(value, floor: float):
    """``max(value, floor)``, elementwise when ``value`` is an array: the
    key bounds of a whole ladder of scores take one numpy pass."""
    if isinstance(value, np.ndarray):
        return np.maximum(value, floor)
    return max(value, floor)


def _at_most(value, ceiling: float):
    """``min(value, ceiling)``, elementwise when ``value`` is an array."""
    if isinstance(value, np.ndarray):
        return np.minimum(value, ceiling)
    return min(value, ceiling)


class Direction(enum.Enum):
    """Which side of the predicate interval expands under refinement."""

    UPPER = "upper"  # e.g. y < 50 : the upper bound grows
    LOWER = "lower"  # e.g. y > 10 : the lower bound drops
    POINT = "point"  # e.g. size = 10 : both sides grow symmetrically


@dataclass(frozen=True)
class _BasePredicate:
    """State shared by every predicate kind."""

    name: str
    refinable: bool = True
    weight: float = 1.0
    limit: Optional[float] = None  # per-predicate max PScore (paper 7.1)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise QueryModelError(f"predicate {self.name!r}: weight must be > 0")
        if self.limit is not None and self.limit < 0:
            raise QueryModelError(f"predicate {self.name!r}: limit must be >= 0")

    # -- shared helpers -------------------------------------------------
    def _require_refinable(self, score: float) -> None:
        if not self.refinable and np.any(np.not_equal(score, 0)):
            raise NotRefinableError(
                f"predicate {self.name!r} is marked NOREFINE"
            )

    def with_norefine(self) -> "_BasePredicate":
        """A copy of this predicate marked NOREFINE."""
        return replace(self, refinable=False)

    def with_weight(self, weight: float) -> "_BasePredicate":
        return replace(self, weight=weight)

    def with_limit(self, limit: float) -> "_BasePredicate":
        return replace(self, limit=limit)


@dataclass(frozen=True)
class SelectPredicate(_BasePredicate):
    """A numeric selection predicate over a single relation.

    ``expr`` is the predicate function; ``interval`` the acceptable
    values in the *original* query; ``direction`` the side that expands.
    """

    expr: Expression = field(default=None)  # type: ignore[assignment]
    interval: Interval = field(default=None)  # type: ignore[assignment]
    direction: Direction = Direction.UPPER
    denominator: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.expr is None or self.interval is None:
            raise QueryModelError(
                f"predicate {self.name!r}: expr and interval are required"
            )
        if self.direction is Direction.POINT and not self.interval.is_point:
            raise QueryModelError(
                f"predicate {self.name!r}: POINT direction needs a point interval"
            )
        if self.denominator is not None and self.denominator <= 0:
            raise QueryModelError(
                f"predicate {self.name!r}: denominator must be > 0"
            )

    # ------------------------------------------------------------------
    @property
    def effective_denominator(self) -> float:
        """Percent-scale denominator of Equation 1.

        Defaults to the interval width; point intervals fall back to the
        join convention (100) so that a refinement score of ``s`` widens
        the point by ``s`` units.
        """
        if self.denominator is not None:
            return self.denominator
        width = self.interval.width
        if width > 0 and math.isfinite(width):
            return width
        return JOIN_DENOMINATOR

    def _amount(self, score: float) -> float:
        return score / 100.0 * self.effective_denominator

    def interval_at(self, score: float) -> Interval:
        """The refined acceptable-value interval at PScore ``score``.

        Positive scores expand the moving side; negative scores shrink
        it (contraction, paper 7.2), clamping at the opposite endpoint
        — a fully shrunk predicate becomes a point at its "minimum
        value", exactly the paper's ``Q'_min`` construction. POINT
        predicates cannot shrink. Its ends are :meth:`key_bounds`.
        """
        return Interval(*self.key_bounds(score))

    def key_bounds(self, score: float) -> tuple[float, float]:
        """Bounds on the expression value at PScore ``score``: the ends
        of :meth:`interval_at`. An infinite end bounds nothing. Given an
        array of scores, the bounds at each, elementwise."""
        self._require_refinable(score)
        amount = self._amount(score)
        lo, hi = self.interval.lo, self.interval.hi
        if self.direction is Direction.UPPER:
            # Clamp the endpoint itself, not just ``amount``: at full
            # shrink, ``hi + (lo - hi)`` can land a few ulps below
            # ``lo`` and a point interval must not become empty.
            return lo, _at_least(hi + amount, lo)
        if self.direction is Direction.LOWER:
            return _at_most(lo - amount, hi), hi
        amount = _at_least(amount, 0.0)
        return lo - amount, hi + amount

    def scores_of_values(self, values: np.ndarray) -> np.ndarray:
        """Minimal signed PScore admitting each function value.

        Negative for values inside the original interval (they survive
        that much contraction); positive for values requiring
        expansion; +inf for values on the predicate's frozen side.
        """
        values = np.asarray(values, dtype=np.float64)
        scale = 100.0 / self.effective_denominator
        if self.direction is Direction.UPPER:
            scores = np.where(
                values < self.interval.lo,
                np.inf,
                (values - self.interval.hi) * scale,
            )
        elif self.direction is Direction.LOWER:
            scores = np.where(
                values > self.interval.hi,
                np.inf,
                (self.interval.lo - values) * scale,
            )
        else:
            scores = np.abs(values - self.interval.lo) * scale
        if not self.refinable:
            scores = np.where(scores > 0, np.inf, scores)
        return scores

    @property
    def max_shrink_score(self) -> float:
        """PScore magnitude at which contraction collapses the interval."""
        if self.direction is Direction.POINT:
            return 0.0
        return self.interval.width * 100.0 / self.effective_denominator

    def max_useful_score(self, domain: Interval) -> float:
        """PScore beyond which no new tuples can be admitted.

        ``domain`` is the observed range of the predicate function
        (from catalog statistics); expanding past it is wasted work.
        """
        scale = 100.0 / self.effective_denominator
        if self.direction is Direction.UPPER:
            gap = domain.hi - self.interval.hi
        elif self.direction is Direction.LOWER:
            gap = self.interval.lo - domain.lo
        else:
            gap = max(
                abs(domain.hi - self.interval.lo),
                abs(self.interval.lo - domain.lo),
            )
        return max(gap, 0.0) * scale

    # -- SQL rendering ---------------------------------------------------
    def sql_condition(self, score: float) -> str:
        """SQL condition for the refined predicate at PScore ``score``."""
        refined = self.interval_at(score)
        expr_sql = self.expr.to_sql()
        parts = []
        if math.isfinite(refined.lo):
            parts.append(f"{expr_sql} >= {refined.lo!r}")
        if math.isfinite(refined.hi):
            parts.append(f"{expr_sql} <= {refined.hi!r}")
        return " AND ".join(parts) if parts else "1=1"

    def describe(self, score: float = 0.0) -> str:
        refined = self.interval_at(score)
        return f"{self.expr.to_sql()} in {refined}"


@dataclass(frozen=True)
class JoinPredicate(_BasePredicate):
    """A (possibly refinable) join predicate ``Delta(f1, f2) <= tol``.

    Refinement widens the tolerance band: an equi-join ``A.x = B.x``
    refined by score ``s`` becomes ``|A.x - B.x| <= s`` (denominator
    100, paper section 2.3).
    """

    left: Expression = field(default=None)  # type: ignore[assignment]
    right: Expression = field(default=None)  # type: ignore[assignment]
    tolerance: float = 0.0
    denominator: float = JOIN_DENOMINATOR

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.left is None or self.right is None:
            raise QueryModelError(
                f"join predicate {self.name!r}: both sides are required"
            )
        if self.tolerance < 0:
            raise QueryModelError(
                f"join predicate {self.name!r}: tolerance must be >= 0"
            )
        if self.denominator <= 0:
            raise QueryModelError(
                f"join predicate {self.name!r}: denominator must be > 0"
            )

    @property
    def is_equi(self) -> bool:
        """True for exact-match joins (zero base tolerance)."""
        return self.tolerance == 0.0

    @property
    def effective_denominator(self) -> float:
        return self.denominator

    def band_at(self, score: float) -> float:
        """Band half-width at PScore ``score`` (clamped at zero when a
        negative score shrinks the band away entirely)."""
        self._require_refinable(score)
        return _at_least(self.tolerance + score / 100.0 * self.denominator, 0.0)

    def interval_at(self, score: float) -> Interval:
        """Acceptable ``Delta`` values at PScore ``score`` (for symmetry
        with select predicates: the interval is ``[0, band]``)."""
        return Interval(0.0, self.band_at(score))

    def key_bounds(self, score: float) -> tuple[float, float]:
        """Bounds on ``|left - right|`` at PScore ``score`` (or at each
        of an array of scores): the band above, nothing below."""
        return -math.inf, self.band_at(score)

    def scores_of_values(self, deltas: np.ndarray) -> np.ndarray:
        """Minimal signed PScore admitting each ``|f1 - f2|`` distance."""
        deltas = np.asarray(deltas, dtype=np.float64)
        scale = 100.0 / self.denominator
        scores = (deltas - self.tolerance) * scale
        if not self.refinable:
            scores = np.where(scores > 0, np.inf, scores)
        return scores

    @property
    def max_shrink_score(self) -> float:
        """PScore magnitude at which the band shrinks to exact match."""
        return self.tolerance * 100.0 / self.denominator

    def delta_sql(self) -> str:
        return f"ABS({self.left.to_sql()} - {self.right.to_sql()})"

    def sql_condition(self, score: float) -> str:
        band = self.band_at(score)
        if band == 0:
            return f"{self.left.to_sql()} = {self.right.to_sql()}"
        return f"{self.delta_sql()} <= {band!r}"

    def max_useful_score(self, domain: Interval) -> float:
        """PScore at which the band covers the whole delta domain."""
        gap = domain.hi - self.tolerance
        return max(gap, 0.0) * 100.0 / self.denominator

    def describe(self, score: float = 0.0) -> str:
        band = self.band_at(score)
        if band == 0:
            return f"{self.left.to_sql()} = {self.right.to_sql()}"
        return f"|{self.left.to_sql()} - {self.right.to_sql()}| <= {band:g}"


@dataclass(frozen=True)
class CategoricalPredicate(_BasePredicate):
    """Ontology-driven categorical predicate (paper section 7.3).

    ``accepted`` is the original set of category values; refinement by
    one unit rolls every accepted value one level up the ontology tree,
    admitting all categories under the resulting ancestors. PScores are
    scaled so that one roll-up level costs ``100 / tree depth`` —
    fully generalizing to the root costs 100, commensurate with numeric
    predicates.
    """

    column: ColumnRef = field(default=None)  # type: ignore[assignment]
    accepted: frozenset[str] = field(default=frozenset())
    ontology: "OntologyTree" = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.column is None or self.ontology is None:
            raise QueryModelError(
                f"categorical predicate {self.name!r}: column and ontology required"
            )
        if not self.accepted:
            raise QueryModelError(
                f"categorical predicate {self.name!r}: accepted set is empty"
            )

    @property
    def level_scale(self) -> float:
        """PScore cost of one roll-up level."""
        depth = max(self.ontology.depth, 1)
        return 100.0 / depth

    @property
    def effective_denominator(self) -> float:
        return 100.0

    def level_at(self, score: float) -> int:
        return int(self.key_bounds(score)[1])

    @property
    def max_shrink_score(self) -> float:
        """Categorical predicates do not shrink (drill-down is future work)."""
        return 0.0

    def accepted_at(self, score: float) -> frozenset[str]:
        """The expanded accepted-value set at PScore ``score``."""
        return self.ontology.expand(self.accepted, self.level_at(score))

    def interval_at(self, score: float) -> Interval:
        """Roll-up level interval (for uniformity with numeric kinds)."""
        return Interval(0.0, float(self.level_at(score)))

    def key_bounds(self, score: float) -> tuple[float, float]:
        """Bounds on a value's roll-up distance at PScore ``score`` (or
        at each of an array of scores): at most the roll-up level
        (:meth:`level_at`), so exactly the values :meth:`accepted_at`
        lists are admitted."""
        self._require_refinable(score)
        levels = np.floor(np.asarray(score) / self.level_scale + 1e-9)
        return -math.inf, np.maximum(levels, 0.0)

    def distances(self, values: np.ndarray) -> np.ndarray:
        """Each value's roll-up distance from the accepted set, its key:
        ``inf`` outside the tree (None included). One ontology walk per
        distinct value, scattered back per row; distinct by hash, not
        np.unique, since a STR column may hold None beside strings, and
        those do not sort."""
        distinct: dict[object, int] = {}
        rows = [distinct.setdefault(value, len(distinct)) for value in values]
        return np.array(
            [self.ontology.distance(self.accepted, value) for value in distinct],
            dtype=np.float64,
        )[np.array(rows, dtype=np.intp)]

    def scores_of_values(self, values: np.ndarray) -> np.ndarray:
        scores = self.distances(values) * self.level_scale
        if not self.refinable:
            scores = np.where(scores > 0, np.inf, scores)
        return scores

    def max_useful_score(self, domain: Interval) -> float:
        return float(self.ontology.depth) * self.level_scale

    def _sql_in(self, values: frozenset[str]) -> str:
        quoted = ", ".join(
            "'" + value.replace("'", "''") + "'" for value in sorted(values)
        )
        return f"{self.column.to_sql()} IN ({quoted})"

    def sql_condition(self, score: float) -> str:
        return self._sql_in(self.accepted_at(score))

    def describe(self, score: float = 0.0) -> str:
        values = sorted(self.accepted_at(score))
        return f"{self.column.to_sql()} IN {values}"


Predicate = Union[SelectPredicate, JoinPredicate, CategoricalPredicate]
