"""The Refined Space abstraction ``RS(Q)`` (paper section 4).

``RS(Q)`` is a d-dimensional space whose origin is the original query
and whose axes measure per-predicate refinement (PScore). ACQUIRE
discretizes it into a grid of step ``gamma / d`` (Theorem 1 then bounds
the distance between the optimal refined query and the best grid query
by ``gamma``). This class owns the bookkeeping between the three
coordinate systems in play:

* grid coordinates — integer tuples, one per grid query;
* refinement scores — grid coordinate * step, i.e. PScores;
* value intervals — what the evaluation layer actually filters on.

The per-dimension extent is clipped to what can possibly matter: the
predicate's user-supplied refinement limit (section 7.1) and the
*useful* maximum derived from the observed attribute domain (expanding
past the domain admits no new tuples).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.core.interval import Interval
from repro.core.predicate import Predicate
from repro.core.query import Query
from repro.core.scoring import LInfNorm, LpNorm, Norm
from repro.exceptions import QueryModelError

#: Grid cells at coordinate 0 cover exactly PScore 0 (the original
#: predicate); this sentinel lower bound marks them in cell ranges.
BASE_CELL_LO = -1.0

#: Safety cap on per-dimension grid extent.
MAX_COORD_CAP = 100_000


class RefinedSpace:
    """Grid view of all refinements of a query.

    Expansion widens the query, so every score is ``coord * step``.
    :class:`~repro.core.contraction.ContractionSpace` is the same grid
    signed the other way (paper section 7.2); :attr:`contracts`,
    :meth:`overshoots` and :meth:`inner_corner` are what the driver
    reads to tell the two directions apart.

    Args:
        query: the ACQ being refined.
        gamma: refinement threshold; the grid step is ``gamma / d``.
        max_scores: per-dimension ceiling on the PScore — the driver
            combines predicate limits (section 7.1) with the evaluation
            layer's useful maximum (beyond the observed attribute domain
            expansion admits nothing).
        norm: QScore norm (default: the paper's L1).
        step: explicit grid step overriding ``gamma / d``.
    """

    #: Whether the grid shrinks the query instead of widening it.
    contracts = False

    def __init__(
        self,
        query: Query,
        gamma: float,
        max_scores: Sequence[float],
        norm: Norm | None = None,
        step: float | None = None,
    ) -> None:
        if gamma <= 0:
            raise QueryModelError("gamma (refinement threshold) must be > 0")
        self.query = query
        self.gamma = float(gamma)
        self.norm: Norm = norm if norm is not None else LpNorm(1)
        self.dims: tuple[Predicate, ...] = query.refinable_predicates
        self.d = len(self.dims)
        if self.d == 0:
            raise QueryModelError(
                "query has no refinable predicates; nothing to refine"
            )
        if len(max_scores) != self.d:
            raise QueryModelError(
                f"expected {self.d} max scores, got {len(max_scores)}"
            )
        self.step = float(step) if step is not None else self.gamma / self.d
        if self.step <= 0:
            raise QueryModelError("grid step must be > 0")
        self.weights = query.weights
        self.max_coords = tuple(
            self._max_coord(predicate, max_score)
            for predicate, max_score in zip(self.dims, max_scores)
        )

    def _max_coord(self, predicate: Predicate, max_score: float) -> int:
        useful = max_score
        if predicate.limit is not None:
            useful = min(useful, predicate.limit)
        if not math.isfinite(useful):
            return MAX_COORD_CAP
        coord = int(math.ceil(useful / self.step - 1e-9))
        return max(0, min(coord, MAX_COORD_CAP))

    # ------------------------------------------------------------------
    # Coordinate conversions
    # ------------------------------------------------------------------
    @property
    def origin(self) -> tuple[int, ...]:
        return (0,) * self.d

    def scores(self, coords: Sequence[int]) -> tuple[float, ...]:
        """PScore vector of a grid query."""
        self._check(coords)
        return tuple(coord * self.step for coord in coords)

    def scores_array(self, points: np.ndarray) -> np.ndarray:
        """:meth:`scores` of every row of ``points``, an ``(n, d)``
        integer array of grid coordinates: the same float products."""
        return points * self.step

    def qscore(self, coords: Sequence[int]) -> float:
        """QScore of a grid query under the space's norm and weights:
        the norm of its score magnitudes ``coord * step``."""
        return self.norm.qscore(
            [coord * self.step for coord in coords], self.weights
        )

    def qscore_of_scores(self, scores: Sequence[float]) -> float:
        """QScore of an arbitrary (possibly off-grid) PScore vector:
        the norm of its magnitudes."""
        return self.norm.qscore([abs(score) for score in scores], self.weights)

    def overshoots(self, value: float, target: float) -> bool:
        """Whether an aggregate value lies past ``target`` in the
        direction the grid moves the query: above it, for expansion.
        NaN never does. ``value`` may be an array of values."""
        return value > target

    def inner_corner(self, scores: Sequence[float]) -> tuple[float, ...]:
        """The scores one grid step back toward the original query on
        every dimension that has left it: the inner corner of the cell
        whose outer corner is ``scores``."""
        return tuple(max(score - self.step, 0.0) for score in scores)

    def grid_qscores(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """QScores of many grid queries, one coordinate array per
        dimension; the arrays broadcast together (a column of points,
        or the open mesh of a box).

        Under L1 the terms ``w_i * (c_i * step)`` are summed left to
        right and under L-inf their maximum is taken, the float
        operations of :meth:`qscore`, so those values equal it bit for
        bit. Other p-norms sum ``w_i * (c_i * step) ** p`` and take the
        p-th root; any other norm calls :meth:`qscore` per point. Every
        value is monotone in each coordinate, which is all the shell
        reads of the grid engine need: they and every backend's shell
        filter compare these values, never :meth:`qscore`'s.
        """
        norm = self.norm
        columns = [np.asarray(column, dtype=np.int64) for column in coords]
        shape = np.broadcast_shapes(*(column.shape for column in columns))
        if type(norm) is LInfNorm or type(norm) is LpNorm:
            pairs = [
                (weight, column * self.step)
                for weight, column in zip(self.weights, columns)
            ]
            if type(norm) is LInfNorm:
                total = functools.reduce(
                    np.maximum, [weight * score for weight, score in pairs]
                )
            else:
                total = 0
                for weight, score in pairs:
                    total = total + (
                        weight * score if norm.p == 1.0
                        else weight * score ** norm.p
                    )
                if norm.p != 1.0:
                    total = total ** (1.0 / norm.p)
            return np.broadcast_to(np.asarray(total, dtype=np.float64), shape)
        points = zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in columns))
        return np.array(
            [self.qscore(point) for point in points], dtype=np.float64
        ).reshape(shape)

    def box_qscores(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> np.ndarray:
        """:meth:`grid_qscores` of every grid query in the inclusive box
        ``[lo, hi]``, shape ``(hi_i - lo_i + 1, ...)``."""
        return self.grid_qscores(
            np.ix_(*(np.arange(low, high + 1) for low, high in zip(lo, hi)))
        )

    def intervals_at(self, coords: Sequence[int]) -> list[Interval]:
        """Refined value intervals of each dimension's predicate."""
        return [
            predicate.interval_at(score)
            for predicate, score in zip(self.dims, self.scores(coords))
        ]

    def cell_ranges(
        self, coords: Sequence[int]
    ) -> list[tuple[float, float]]:
        """Per-dimension PScore range covered by the *cell* at ``coords``.

        Coordinate 0 covers exactly score 0 (lower bound is the
        :data:`BASE_CELL_LO` sentinel); coordinate c >= 1 covers the
        half-open annulus ``((c-1)*step, c*step]``. :func:`cell_coords`
        maps scores to cells by the same predicate.
        """
        self._check(coords)
        ranges = []
        for coord in coords:
            if coord == 0:
                ranges.append((BASE_CELL_LO, 0.0))
            else:
                ranges.append(((coord - 1) * self.step, coord * self.step))
        return ranges

    def contains(self, coords: Sequence[int]) -> bool:
        """Whether the grid point exists (within per-dim extents)."""
        return len(coords) == self.d and all(
            0 <= coord <= limit for coord, limit in zip(coords, self.max_coords)
        )

    def _check(self, coords: Sequence[int]) -> None:
        if len(coords) != self.d:
            raise QueryModelError(
                f"coordinate arity {len(coords)} != dimensionality {self.d}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def grid_size(self) -> int:
        """Total number of grid queries (can be astronomically large)."""
        size = 1
        for limit in self.max_coords:
            size *= limit + 1
        return size

    def layer_sizes(self, max_layers: int) -> list[int]:
        """Grid-query counts of the first L1 layers.

        Entry ``k`` is the number of grid points whose coordinates sum
        to ``k`` (respecting per-dimension extents) — with the default
        L1 norm and unit weights, exactly the queries explored at
        QScore ``k * step``. The static analyzer uses this to estimate
        per-layer query counts without running the search.
        """
        if max_layers < 0:
            raise QueryModelError("max_layers must be >= 0")
        counts = [1] + [0] * max_layers
        for limit in self.max_coords:
            merged = [0] * (max_layers + 1)
            for total in range(max_layers + 1):
                if counts[total] == 0:
                    continue
                for coord in range(min(limit, max_layers - total) + 1):
                    merged[total + coord] += counts[total]
            counts = merged
        return counts

    def describe(self, coords: Sequence[int]) -> str:
        parts = [
            predicate.describe(score)
            for predicate, score in zip(self.dims, self.scores(coords))
        ]
        return " AND ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RefinedSpace(d={self.d}, step={self.step:g}, "
            f"max_coords={self.max_coords})"
        )


def cell_coords(scores: np.ndarray, step: float) -> np.ndarray:
    """Grid coordinate of the cell each signed score falls in (cell 0
    covers scores <= 0), elementwise.

    Must agree bitwise with the cell predicate of
    :meth:`RefinedSpace.cell_ranges`, ``(c - 1) * step < s <= c * step``,
    which compares against the float *products*: every cell query, grid
    pass and bitmap index buckets a tuple the same way. When ``step`` is
    not exactly representable, the float *quotient* ``s / step`` can
    land a boundary-adjacent score one cell away from where the product
    comparison puts it — so after the ceil guess, nudge each coordinate
    until it satisfies exactly that predicate. The loops run at most
    once per element in practice.
    """
    positive = np.maximum(scores, 0.0)
    cells = np.ceil(positive / step - 1e-12).astype(np.int64)
    np.maximum(cells, 0, out=cells)
    while True:
        too_high = (cells > 0) & (positive <= (cells - 1) * step)
        if not too_high.any():
            break
        cells[too_high] -= 1
    while True:
        too_low = positive > cells * step
        if not too_low.any():
            break
        cells[too_low] += 1
    return cells
