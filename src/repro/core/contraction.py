"""Contracting queries with too many results (paper section 7.2).

The paper: construct ``Q'_min`` with each predicate of the original
query set to its minimum value; the refined space is then bounded by
``Q`` and ``Q'_min`` and traversed "minimizing refinement with respect
to Q instead of Q'_min".

Contraction is a space and a way of reading it; the search loop is the
driver's (:class:`~repro.core.acquire.Acquire`). A grid point at
coordinates ``(c_1 .. c_d)`` is the query with every dimension shrunk
by ``c_i * step`` percent: signed PScores ``-c_i * step``, QScores of
their magnitudes. The driver walks the grid best-first, closest to
``Q`` first, exactly like the Expand phase, and the rules that depend
on the direction read it off the space: "past the target" means below
it, a repartitioned cell's inner corner lies one step toward ``Q``,
and the EQ overshoot rules of expansion do not apply.

Each examined grid query is read with one box query per constraint
(:class:`~repro.core.explore.BoxExplorer`) rather than through the
incremental cell recurrence: the Eq. 17 recurrence consumes stored
sub-aggregates of *contained* queries, and a traversal ordered by
proximity to ``Q`` visits the *containing* queries first. With one
answer asked for, a monotone aggregate and no extra constraint, the
driver prunes instead: a query whose aggregate has fallen below the
target only falls further as it shrinks, so the search does not shrink
it any further. That keeps the number of box queries close to the
number of useful grid points. See "Contraction (§7.2)" in
docs/ALGORITHM.md.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.explore import BoxExplorer
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.core.result import AcquireResult, SearchStats
from repro.core.scoring import Norm
from repro.engine.backends import EvaluationLayer


class ContractionSpace(RefinedSpace):
    """Grid over shrinkage scores, bounded by ``Q`` and ``Q'_min``.

    A dimension's extent is the score at which its predicate collapses
    to a point (``max_shrink_score``), clipped to its refinement limit.
    Scores are signed (all <= 0); QScores, those of their magnitudes,
    are the expansion grid's.
    """

    contracts = True

    def __init__(
        self,
        query: Query,
        gamma: float,
        norm: Optional[Norm] = None,
        step: Optional[float] = None,
    ) -> None:
        super().__init__(
            query,
            gamma,
            [
                predicate.max_shrink_score
                for predicate in query.refinable_predicates
            ],
            norm,
            step,
        )
        self.monotone = query.constraint.spec.aggregate.monotone_expanding

    def scores(self, coords: Sequence[int]) -> tuple[float, ...]:
        """Signed PScores (all <= 0) of a contraction grid point."""
        self._check(coords)
        return tuple(-coord * self.step for coord in coords)

    def scores_array(self, points: np.ndarray) -> np.ndarray:
        """:meth:`scores` of every row of ``points``: the coordinates
        negated as integers, then the same float products."""
        return -points * self.step

    def overshoots(self, value: float, target: float) -> bool:
        """Below ``target``, and only for a monotone aggregate, whose
        value keeps falling as the query shrinks. ``value`` may be an
        array."""
        if self.monotone:
            return value < target
        return np.zeros(np.shape(value), dtype=bool)

    def inner_corner(self, scores: Sequence[float]) -> tuple[float, ...]:
        return tuple(min(score + self.step, 0.0) for score in scores)


def contract_query(
    layer: EvaluationLayer, query: Query, config: AcquireConfig
) -> AcquireResult:
    """Shrink ``query`` until its aggregate meets the constraint.

    Handles ``<=``/``<`` constraints, and ``=`` constraints whose
    original query overshoots the target (the :class:`Acquire` driver
    delegates both cases here). ``config.explore_mode`` does not
    apply: the grid is read box by box, in best-first order.
    """
    # One stat scope per search (nested inside the expansion scope on
    # the EQ-overshoot delegation path, where the inner scope reports
    # exactly what the old snapshot/delta window did).
    with layer.request_scope() as layer_scope:
        started = time.perf_counter()
        caps = [0.0] * query.dimensionality
        space = ContractionSpace(query, config.gamma, config.norm, config.step)
        # One engine per constraint, primary first, each on its own
        # prepared handle.
        views = [query] + [
            query.with_only_constraint(extra)
            for extra in query.extra_constraints
        ]
        explorers = [
            BoxExplorer(
                layer,
                layer.prepare(view, caps),
                space,
                view.constraint.spec.aggregate,
            )
            for view in views
        ]
        stats = SearchStats(
            top_k=config.top_k,
            explore_mode=BoxExplorer.mode,
            plan_reason="contraction",
        )
        original_value = explorers[0].compute_aggregate(space.origin)
        return Acquire(layer)._search(
            config, explorers, stats, original_value, started, layer_scope
        )
