"""Phase I — Expand (paper section 4, Algorithms 1 and 2).

The Expand phase generates grid queries in order of non-decreasing
QScore, layer by layer, so that (Theorem 2) a query with QScore ``k``
is only investigated after every query with smaller QScore, and
(Theorem 3) every query is generated after all queries it contains.
The Explore phase's incremental aggregate computation depends on that
containment order.

Two traversals are provided:

* :class:`LpBestFirstTraversal` — Algorithm 1 generalized: the grid in
  the order of the key ``(QScore, sum(coords), coords)``. For the
  default L1 norm with unit weights this is the paper's plain
  breadth-first search; the extra key components guarantee containment
  order for *any* monotone norm, including weighted norms and L-inf
  (where two nested queries can share a QScore). Under the L1 norm the
  order is enumerated in numpy shells (:class:`_L1Shells`); under any
  other norm it is popped off a best-first heap (:func:`heap_scored`),
  which is also the reference the shells are tested against.
* :class:`LInfLayerTraversal` — Algorithm 2: explicit enumeration of
  the L-shaped layers of the L-infinity norm with equal weights.
  Provided for fidelity and tested equivalent (as a set, layer by
  layer) to the best-first traversal under the L-inf norm.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, Optional

import numpy as np

from repro.core.refined_space import RefinedSpace
from repro.core.scoring import LInfNorm, LpNorm
from repro.exceptions import SearchError

Coords = tuple[int, ...]

#: Decimal places used when bucketing QScores into layers. Shared with
#: the driver so layer grouping and layer-boundary checks agree.
LAYER_DECIMALS = 9


class Traversal:
    """Iterator protocol over grid queries in non-decreasing QScore."""

    space: RefinedSpace

    def __iter__(self) -> Iterator[Coords]:
        raise NotImplementedError

    def scored(self) -> Iterator[tuple[Coords, float]]:
        """The coordinate stream paired with each point's QScore.

        Scores each grid point exactly once; traversals that already
        compute QScores internally (the best-first heap, the L1 shells)
        override this to reuse them, so consumers never trigger a second
        QScore evaluation per point.
        """
        space = self.space
        for coords in self:
            yield coords, space.qscore(coords)

    def layers_scored(self) -> Iterator[list[tuple[Coords, float]]]:
        """Bulk layer generator: the scored stream grouped into maximal
        runs of equal QScore (rounded to ``LAYER_DECIMALS``).

        Concatenating the layers reproduces :meth:`scored` exactly, so
        a driver consuming layers visits the same queries in the same
        order. Cells within one layer never depend on each other's
        *cell* aggregates (the Eq. 17 recurrence reads stored states of
        strictly contained queries only when combining, never when
        executing a cell), which is what makes a layer a safe unit of
        bulk reads (``compute_aggregates``).
        """
        batch: list[tuple[Coords, float]] = []
        key = 0.0
        for coords, qscore in self.scored():
            coords_key = round(qscore, LAYER_DECIMALS)
            if batch and coords_key != key:
                yield batch
                batch = []
            key = coords_key
            batch.append((coords, qscore))
        if batch:
            yield batch

    def layers(self) -> Iterator[list[Coords]]:
        """:meth:`layers_scored` with the QScores stripped."""
        for layer in self.layers_scored():
            yield [coords for coords, _ in layer]


#: Grid points the first shell holds at most, whatever the weights; a
#: search that examines fewer enumerates one shell.
FIRST_SHELL_POINTS = 1024

#: Each later shell aims at this multiple of the points enumerated for
#: the one before it.
SHELL_GROWTH = 2.0


def heap_scored(space: RefinedSpace) -> Iterator[tuple[Coords, float]]:
    """Best-first stream of ``(coords, QScore)`` over the whole grid.

    Every popped query pushes its d successors (one coordinate
    incremented by one step), deduplicated exactly like the paper's
    ``queryQue.Contains`` check, and is scored once, at push time. The
    priority key makes the stream non-decreasing in QScore and
    consistent with containment: ``u`` strictly contained in ``v``
    implies ``QScore(u) <= QScore(v)`` and ``sum(u) < sum(v)``, so
    ``u`` pops first even on QScore ties. A successor's key exceeds its
    parent's, so the stream is the whole grid sorted by the key.
    """
    origin = space.origin
    heap: list[tuple[float, int, Coords]] = [(space.qscore(origin), 0, origin)]
    queued: set[Coords] = {origin}
    while heap:
        qscore, total, coords = heapq.heappop(heap)
        yield coords, qscore
        for dim in range(space.d):
            if coords[dim] >= space.max_coords[dim]:
                continue
            successor = coords[:dim] + (coords[dim] + 1,) + coords[dim + 1 :]
            if successor in queued:
                continue
            queued.add(successor)
            heapq.heappush(
                heap,
                (space.qscore(successor), total + 1, successor),
            )


class _L1Shells:
    """The best-first key order under the L1 norm, enumerated in shells.

    Shell ``k`` holds every grid point whose QScore lies in
    ``(lower_k, bound_k]``. All points with QScore <= ``bound_k`` are
    generated by broadcasting per-dimension term tables and pruning
    every partial sum above the bound (terms are non-negative, so a
    partial sum never shrinks). The shell is then sorted on the heap's
    own key ``(QScore, sum(coords), coords)`` with one ``np.lexsort``
    and cut into rounded-QScore layers. A QScore is the sum of the terms
    ``w_i * (c_i * step)`` taken left to right in dimension order, the
    float operations of :meth:`LpNorm.qscore`, so coordinates, QScores
    and layers are bit-identical to :func:`heap_scored`'s.

    A shell ends on an exact QScore, so equal QScores never straddle two
    shells. Its last layer may still continue past the bound once
    rounded, so it is held back and enumerated again as the start of
    the next shell. Term tables grow with the bound, never to the
    dimension's extent. The first bound holds at most
    :data:`FIRST_SHELL_POINTS` points and each later one aims at
    :data:`SHELL_GROWTH` times the points of the one before, so the
    enumeration costs a constant factor over the points a search
    consumes.
    """

    def __init__(self, space: RefinedSpace, weights: tuple[float, ...]) -> None:
        self.space = space
        self.weights = weights
        self.max_qscore = space.norm.qscore(
            space.scores(space.max_coords), space.weights
        )

    @classmethod
    def for_space(cls, space: RefinedSpace) -> Optional["_L1Shells"]:
        """Shells for ``space`` when they reproduce the heap exactly: the
        norm is :class:`LpNorm` itself with ``p=1`` and every weight
        times the step is a positive finite float. None otherwise."""
        norm = space.norm
        if type(norm) is not LpNorm or norm.p != 1.0:
            return None
        weights = tuple(float(weight) for weight in space.weights)
        if not all(0.0 < weight * space.step < math.inf for weight in weights):
            return None
        shells = cls(space, weights)
        return shells if math.isfinite(shells.max_qscore) else None

    def _terms(self, dim: int, bound: float) -> np.ndarray:
        """Dimension ``dim``'s terms ``w * (c * step)`` for every
        coordinate whose term is <= ``bound``."""
        weight, step = self.weights[dim], self.space.step
        reach = bound / (weight * step) + 2  # a spare coordinate for rounding
        count = int(min(reach, self.space.max_coords[dim])) + 1
        terms = weight * (np.arange(count, dtype=np.float64) * step)
        return terms[: int(np.searchsorted(terms, bound, side="right"))]

    def _first_bound(self) -> float:
        """A bound holding at most :data:`FIRST_SHELL_POINTS` points,
        whatever the weights. Every term step is at least the smallest
        one, so a QScore within ``k`` smallest steps has
        ``sum(c) <= k``, which holds ``C(k + d, d)`` points, at most
        ``(k + (d + 1) / 2) ** d / d!``."""
        d = self.space.d
        unit = min(weight * self.space.step for weight in self.weights)
        reach = (FIRST_SHELL_POINTS * math.factorial(d)) ** (1.0 / d)
        return max(reach - (d + 1) / 2, 1.0) * unit

    def _points(self, bound: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """The QScores and coordinate columns of every grid point whose
        QScore is <= ``bound``, unordered."""
        tables = [self._terms(dim, bound) for dim in range(self.space.d)]
        qscores = tables[0]
        columns = [np.arange(len(qscores))]
        for table in tables[1:]:
            sums = qscores[:, None] + table
            rows, cols = np.nonzero(sums <= bound)
            qscores = sums[rows, cols]
            columns = [column[rows] for column in columns]
            columns.append(cols)
        return qscores, columns

    def layers(self) -> Iterator[list[tuple[Coords, float]]]:
        lower = -math.inf
        bound = self._first_bound()
        while True:
            final = bound >= self.max_qscore
            if final:
                bound = self.max_qscore
            qscores, columns = self._points(bound)
            enumerated = len(qscores)
            fresh = qscores > lower
            qscores = qscores[fresh]
            columns = [column[fresh] for column in columns]
            order = np.lexsort((*columns[::-1], sum(columns), qscores))
            qscores = qscores[order]
            columns = [column[order] for column in columns]
            starts = _layer_starts(qscores)
            if not final:
                starts.pop()  # hold the last layer back for the next shell
            for start, stop in zip(starts, starts[1:]):
                points = zip(*[column[start:stop].tolist() for column in columns])
                yield list(zip(points, qscores[start:stop].tolist()))
            if final:
                return
            if len(starts) > 1:
                lower = qscores[starts[-1] - 1]
            # Dimensions whose terms the bound cuts short still widen
            # the shells as the bound grows. Those whose first term is
            # still above it count too, so under skewed weights the
            # shells grow slower than the target, not faster.
            step = self.space.step
            growing = sum(
                weight * (extent * step) > bound
                for weight, extent in zip(self.weights, self.space.max_coords)
            )
            target = max(FIRST_SHELL_POINTS, SHELL_GROWTH * enumerated)
            bound *= (target / enumerated) ** (1.0 / max(growing, 1))


def _layer_starts(qscores: np.ndarray) -> list[int]:
    """Where the layers of a sorted, non-empty QScore array start, then
    its length. Layers are maximal runs of equal
    ``round(qscore, LAYER_DECIMALS)`` as :meth:`Traversal.layers_scored`
    cuts them; Python rounds each distinct QScore once."""
    firsts = np.flatnonzero(qscores[1:] != qscores[:-1]) + 1
    starts = [0]
    key = round(float(qscores[0]), LAYER_DECIMALS)
    for first, qscore in zip(firsts.tolist(), qscores[firsts].tolist()):
        if round(qscore, LAYER_DECIMALS) != key:
            starts.append(first)
            key = round(qscore, LAYER_DECIMALS)
    starts.append(len(qscores))
    return starts


class LpBestFirstTraversal(Traversal):
    """Best-first expansion of the refined-space grid (Algorithm 1).

    The stream is the grid sorted by ``(QScore, sum(coords), coords)``
    (see :func:`heap_scored`). Under the L1 norm it is enumerated in
    numpy shells; otherwise it is popped off the heap.
    """

    def __init__(self, space: RefinedSpace) -> None:
        self.space = space
        self.shells = _L1Shells.for_space(space)

    def __iter__(self) -> Iterator[Coords]:
        for coords, _ in self.scored():
            yield coords

    def scored(self) -> Iterator[tuple[Coords, float]]:
        """Native scored stream: each point is scored once, by the
        shells or at heap push time."""
        if self.shells is None:
            yield from heap_scored(self.space)
            return
        for layer in self.shells.layers():
            yield from layer

    def layers_scored(self) -> Iterator[list[tuple[Coords, float]]]:
        if self.shells is None:
            return super().layers_scored()
        return self.shells.layers()


class LInfLayerTraversal(Traversal):
    """Layer-wise enumeration for the L-infinity norm (Algorithm 2).

    Layer ``r`` holds every grid query whose maximum coordinate equals
    ``r``; layers are L-shaped shells around the origin. Within a
    layer, queries are produced class by class (class ``i`` pins
    dimension ``i`` at ``r`` with earlier dimensions <= r and later
    dimensions <= r-1, a disjoint and complete cover), in
    lexicographic order — which preserves containment order.

    The layers follow the largest *coordinate*, so their QScores are
    non-decreasing (Theorem 2) only when every predicate weighs the
    same; unequal weights are refused.
    """

    def __init__(self, space: RefinedSpace) -> None:
        if not isinstance(space.norm, LInfNorm):
            raise SearchError(
                "LInfLayerTraversal requires the L-infinity norm; "
                f"got {space.norm!r}"
            )
        if not _equal_weights(space):
            raise SearchError(
                "LInfLayerTraversal requires equal predicate weights; "
                f"got {space.weights!r}"
            )
        self.space = space

    def __iter__(self) -> Iterator[Coords]:
        space = self.space
        max_layer = max(space.max_coords) if space.max_coords else 0
        yield space.origin
        for layer in range(1, max_layer + 1):
            yield from self._layer(layer)

    def _layer(self, layer: int) -> Iterator[Coords]:
        """All in-bounds coordinates whose maximum equals ``layer``."""
        space = self.space
        for pinned in range(space.d):
            if space.max_coords[pinned] < layer:
                continue
            axis_ranges = []
            feasible = True
            for dim in range(space.d):
                if dim == pinned:
                    axis_ranges.append((layer,))
                    continue
                cap = layer if dim < pinned else layer - 1
                cap = min(cap, space.max_coords[dim])
                if cap < 0:
                    feasible = False
                    break
                axis_ranges.append(tuple(range(cap + 1)))
            if not feasible:
                continue
            for coords in itertools.product(*axis_ranges):
                yield coords


def _equal_weights(space: RefinedSpace) -> bool:
    return len(set(space.weights)) <= 1


def make_traversal(space: RefinedSpace, kind: str = "auto") -> Traversal:
    """Pick a traversal implementation.

    ``auto`` uses the layer enumerator for the L-infinity norm with
    equal weights and the best-first order otherwise; ``lp``/``linf``
    force a choice.
    """
    if kind == "lp":
        return LpBestFirstTraversal(space)
    if kind == "linf":
        return LInfLayerTraversal(space)
    if kind == "auto":
        if isinstance(space.norm, LInfNorm) and _equal_weights(space):
            return LInfLayerTraversal(space)
        return LpBestFirstTraversal(space)
    raise SearchError(f"unknown traversal kind: {kind!r}")
