"""Refinement scoring (paper section 2.3, Equations 1-3).

A refined query is represented as a d-dimensional vector of predicate
refinement scores (PScores); the query refinement score (QScore) is a
monotonic function of that vector. The paper uses weighted vector
p-norms with L1 as the default, plus the L-infinity norm whose layers
are L-shaped; all three are provided here, and any object satisfying
:class:`Norm` may replace them.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from repro.core.interval import Interval
from repro.exceptions import QueryModelError


class Norm(Protocol):
    """A monotonic map from PScore vectors to a scalar QScore."""

    def qscore(
        self, pscores: Sequence[float], weights: Sequence[float] | None = None
    ) -> float:
        ...


class LpNorm:
    """Weighted p-norm: ``(sum_i w_i * x_i^p)^(1/p)``.

    ``p=1`` reproduces the paper's default (Equation 3); the weighted
    variant is the ``LWp`` preference mechanism of section 7.1.
    """

    def __init__(self, p: float = 1.0) -> None:
        if p < 1:
            raise QueryModelError(f"p-norm requires p >= 1, got {p}")
        self.p = float(p)

    def qscore(
        self, pscores: Sequence[float], weights: Sequence[float] | None = None
    ) -> float:
        if weights is None:
            weights = [1.0] * len(pscores)
        if len(weights) != len(pscores):
            raise QueryModelError("weights/pscores length mismatch")
        if self.p == 1.0:
            # Left to right in dimension order, on every Python version
            # (``sum`` compensates float sums from 3.12 on): the shell
            # enumeration in repro.core.expand repeats these operations.
            total = 0
            for w, x in zip(weights, pscores):
                total += w * abs(x)
            return float(total)
        total = sum(w * abs(x) ** self.p for w, x in zip(weights, pscores))
        return float(total ** (1.0 / self.p))

    def __repr__(self) -> str:
        return f"LpNorm(p={self.p:g})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LpNorm) and other.p == self.p


class LInfNorm:
    """Weighted max norm; query layers are L-shaped (paper Figure 3)."""

    def qscore(
        self, pscores: Sequence[float], weights: Sequence[float] | None = None
    ) -> float:
        if weights is None:
            weights = [1.0] * len(pscores)
        if len(weights) != len(pscores):
            raise QueryModelError("weights/pscores length mismatch")
        if not pscores:
            return 0.0
        return float(max(w * abs(x) for w, x in zip(weights, pscores)))

    def __repr__(self) -> str:
        return "LInfNorm()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LInfNorm)


class MaxConstraintDistance:
    """Chebyshev combine: the worst per-constraint error.

    ``combine(errors) <= delta`` iff *every* constraint's error is
    within delta — the conjunction semantics of a multi-constraint ACQ
    (``CONSTRAINT c1 AND c2 ...``), which the search and the oracle
    both apply. For a single constraint it is the identity.
    """

    def combine(self, errors: Sequence[float]) -> float:
        if not errors:
            return 0.0
        return float(max(errors))

    def combine_array(self, errors: Sequence[np.ndarray]) -> np.ndarray:
        """``combine`` of each point's per-constraint errors, given one
        float64 array per constraint, primary first: each entry is the
        float ``combine`` returns."""
        # ``max`` keeps the first of equal items and takes an item only
        # if it compares greater, so a NaN is kept only in front.
        result = errors[0]
        for column in errors[1:]:
            result = np.where(column > result, column, result)
        return result


def pscore_interval(
    original: Interval, refined: Interval, denominator: float | None = None
) -> float:
    """PScore between two intervals (paper Equation 1).

    ``(|lo - lo'| + |hi - hi'|) / |hi - lo| * 100``; if the original
    interval is a point, the paper's rule for equality predicates
    applies and the denominator defaults to 100.
    """
    if denominator is None:
        width = original.width
        denominator = width if width > 0 and math.isfinite(width) else 100.0
    if denominator <= 0:
        raise QueryModelError("PScore denominator must be > 0")
    departure = abs(original.lo - refined.lo) + abs(original.hi - refined.hi)
    return departure / denominator * 100.0
