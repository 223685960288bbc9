"""Exhaustive brute-force oracle over the refinement lattice.

The oracle certifies corpus labels *independently* of the Expand/
Explore machinery: it enumerates every grid point of the refined space
(expansion or contraction, mirroring the driver's direction choice) and
evaluates every aggregate constraint at each point with direct box
queries — no layer traversal, no incremental cell recurrence, no
pruning, no caches. Agreement between :class:`~repro.core.acquire.
Acquire` and this enumeration is therefore evidence about the search,
not a tautology.

Guarantee: the oracle ranks all satisfying refinements *on the grid
lattice* by ``(QScore, error)``. That is exactly the population the
driver searches (paper Theorem 1 bounds the lattice optimum within
``gamma`` of the continuum optimum), so a driver answer is "optimal"
when it matches the oracle's first rank. Off-grid repartitioned answers
are outside the lattice; corpus configurations disable repartitioning
(``repartition_iterations=0``) so the two populations coincide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.contraction import ContractionSpace
from repro.core.error import default_error_for
from repro.core.expand import LAYER_DECIMALS
from repro.core.query import ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.scoring import MaxConstraintDistance
from repro.engine.backends import EvaluationLayer
from repro.exceptions import CorpusError

#: Hard ceiling on enumerated lattice points; the oracle is exhaustive,
#: so corpus spaces must stay small enough to brute-force honestly.
DEFAULT_MAX_POINTS = 200_000


@dataclass(frozen=True)
class OracleEntry:
    """One enumerated lattice point.

    ``values`` holds the actual aggregate of every constraint (primary
    first); ``error`` is the combined constraint distance the driver
    compares against delta.
    """

    coords: tuple[int, ...]
    pscores: tuple[float, ...]
    qscore: float
    error: float
    values: tuple[float, ...]

    @property
    def rank_key(self) -> tuple[float, float]:
        """(QScore, error) rounded to the driver's layer resolution."""
        return (
            round(self.qscore, LAYER_DECIMALS),
            round(self.error, LAYER_DECIMALS),
        )


@dataclass(frozen=True)
class OracleCertificate:
    """Result of exhaustively enumerating one (dataset, ACQ) pair."""

    direction: str  # "expansion" | "contraction"
    satisfied: bool
    ranking: tuple[OracleEntry, ...]  # satisfying points, ranked
    closest: Optional[OracleEntry]  # min (error, qscore) over the grid
    original_value: float
    points_enumerated: int

    @property
    def best(self) -> Optional[OracleEntry]:
        return self.ranking[0] if self.ranking else None

    def top(self, k: int) -> tuple[OracleEntry, ...]:
        return self.ranking[:k]

    def top_closed(self, k: int) -> tuple[OracleEntry, ...]:
        """The first k entries, extended through the last tie group.

        The driver always finishes the layer that completes its k-th
        answer, so its answer set contains *every* member of the k-th
        rank's (QScore, error) tie group; comparing against this closed
        prefix makes the gate's multiset checks well-defined.
        """
        if k >= len(self.ranking) or not self.ranking:
            return self.ranking
        boundary = self.ranking[k - 1].rank_key
        end = k
        while end < len(self.ranking) and (
            self.ranking[end].rank_key == boundary
        ):
            end += 1
        return self.ranking[:end]


def certify(
    layer: EvaluationLayer,
    query: Query,
    config,
    max_points: int = DEFAULT_MAX_POINTS,
) -> OracleCertificate:
    """Enumerate the full refinement lattice and rank every answer.

    Mirrors the driver's direction choice exactly: contraction for
    ``<=``/``<`` constraints and for monotone equality constraints whose
    original query already overshoots beyond delta; expansion otherwise.
    """
    constraint = query.constraint
    aggregate = constraint.spec.aggregate
    error_fns = [config.error_fn or default_error_for(constraint.op)] + [
        default_error_for(extra.op) for extra in query.extra_constraints
    ]
    distance = MaxConstraintDistance()

    dim_caps = [
        predicate.limit if predicate.limit is not None
        else config.dim_cap_default
        for predicate in query.refinable_predicates
    ]
    prepared = layer.prepare(query, dim_caps)
    original_state = layer.execute_box(
        prepared, (0.0,) * query.dimensionality
    )
    original_value = aggregate.finalize(original_state)

    expansion = constraint.op.is_expansion
    if (
        expansion
        and constraint.op is ConstraintOp.EQ
        and aggregate.monotone_expanding
        and original_value > constraint.target
        and error_fns[0](constraint.target, original_value) > config.delta
    ):
        expansion = False

    if expansion:
        useful = layer.useful_max_scores(prepared)
        max_scores = [min(cap, score) for cap, score in zip(dim_caps, useful)]
        space = RefinedSpace(
            query, config.gamma, max_scores, config.norm, config.step
        )
        handles = [prepared] + [
            layer.prepare(query.with_only_constraint(extra), dim_caps)
            for extra in query.extra_constraints
        ]
        direction = "expansion"
    else:
        space = ContractionSpace(
            query, config.gamma, config.norm, config.step
        )
        handles = [
            layer.prepare(
                query.with_only_constraint(each), [0.0] * query.dimensionality
            )
            for each in query.constraints
        ]
        direction = "contraction"

    grid_points = math.prod(limit + 1 for limit in space.max_coords)
    if grid_points > max_points:
        raise CorpusError(
            f"refinement lattice holds {grid_points} points, beyond the "
            f"oracle's exhaustive-enumeration ceiling of {max_points}; "
            "raise gamma or add predicate limits to keep corpus spaces "
            "brute-forceable"
        )

    constraints = query.constraints
    entries_satisfying: list[OracleEntry] = []
    closest: Optional[OracleEntry] = None
    count = 0
    for coords in itertools.product(
        *(range(limit + 1) for limit in space.max_coords)
    ):
        count += 1
        scores = space.scores(coords)
        values = []
        errors = []
        for each, handle, error_fn in zip(constraints, handles, error_fns):
            state = layer.execute_box(handle, scores)
            value = each.spec.aggregate.finalize(state)
            values.append(value)
            errors.append(error_fn(each.target, value))
        combined = distance.combine(errors)
        entry = OracleEntry(
            coords=tuple(coords),
            pscores=tuple(scores),
            qscore=space.qscore_of_scores(scores),
            error=combined,
            values=tuple(values),
        )
        if closest is None or (entry.error, entry.qscore) < (
            closest.error, closest.qscore
        ):
            closest = entry
        if combined <= config.delta:
            entries_satisfying.append(entry)

    entries_satisfying.sort(key=lambda e: (*e.rank_key, e.coords))
    return OracleCertificate(
        direction=direction,
        satisfied=bool(entries_satisfying),
        ranking=tuple(entries_satisfying),
        closest=closest,
        original_value=original_value,
        points_enumerated=count,
    )


def grid_point_values(
    layer: EvaluationLayer,
    query: Query,
    config,
    coords: Sequence[int],
    contraction: bool = False,
) -> tuple[float, ...]:
    """Aggregates of every constraint at one lattice point.

    Generator helper: corpus targets are planted by measuring a random
    lattice point and using its aggregates as the constraint targets,
    which guarantees satisfiability without search.
    """
    dim_caps = [
        predicate.limit if predicate.limit is not None
        else config.dim_cap_default
        for predicate in query.refinable_predicates
    ]
    if contraction:
        space: ContractionSpace | RefinedSpace = ContractionSpace(
            query, config.gamma, config.norm, config.step
        )
        caps = [0.0] * query.dimensionality
    else:
        prepared = layer.prepare(query, dim_caps)
        useful = layer.useful_max_scores(prepared)
        max_scores = [min(cap, score) for cap, score in zip(dim_caps, useful)]
        space = RefinedSpace(
            query, config.gamma, max_scores, config.norm, config.step
        )
        caps = dim_caps
    scores = space.scores(coords)
    values = []
    for each in query.constraints:
        handle = layer.prepare(query.with_only_constraint(each), caps)
        state = layer.execute_box(handle, scores)
        values.append(each.spec.aggregate.finalize(state))
    return tuple(values)
