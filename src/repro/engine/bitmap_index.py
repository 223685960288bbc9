"""Grid bitmap index (paper section 7.4).

The paper: divide each attribute dimension into equi-width parts,
assign one bit per multi-dimensional grid cell, set the bit when the
cell contains at least one tuple, and consult the index in the Explore
phase to skip executing provably-empty cell queries.

Our grid lives in refinement-score space (equivalent to the paper's
attribute-space grid for skip-empty purposes, because the refined-space
cell is exactly an attribute-space box). The index stores the set of
non-empty cells; :meth:`is_empty` is an O(1) membership test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.refined_space import RefinedSpace, cell_coords
from repro.exceptions import EngineError


class GridBitmapIndex:
    """Set-of-nonempty-cells index over a refined space grid."""

    def __init__(self, nonempty: frozenset[tuple[int, ...]], d: int) -> None:
        self._nonempty = nonempty
        self._d = d

    @classmethod
    def from_scores(
        cls, scores: np.ndarray, space: RefinedSpace
    ) -> "GridBitmapIndex":
        """Build from the candidate relation's signed score matrix."""
        if scores.shape[0] == 0:
            return cls(frozenset(), space.d)
        coords = cell_coords(scores, space.step)
        nonempty = frozenset(map(tuple, coords.tolist()))
        return cls(nonempty, space.d)

    def is_empty(self, coords: Sequence[int]) -> bool:
        return tuple(int(c) for c in coords) not in self._nonempty

    @property
    def nonempty_cells(self) -> int:
        return len(self._nonempty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridBitmapIndex(nonempty={len(self._nonempty)}, d={self._d})"


class CountingGridIndex:
    """Per-cell tuple-count index, maintainable under updates.

    The paper's section 7.4 aside: "storing the number of tuples may be
    easier for keeping the index up-to-date but requires more space".
    This variant stores counts, so inserted/deleted tuples adjust cells
    incrementally instead of forcing a rebuild — a bit becomes stale the
    moment a deletion could have emptied its cell, a count never does.
    """

    def __init__(self, step: float, d: int) -> None:
        if step <= 0:
            raise EngineError("grid step must be > 0")
        self.step = float(step)
        self.d = d
        self._counts: dict[tuple[int, ...], int] = {}

    @classmethod
    def from_scores(
        cls, scores: np.ndarray, space: RefinedSpace
    ) -> "CountingGridIndex":
        index = cls(space.step, space.d)
        if scores.shape[0]:
            index.insert(scores)
        return index

    def _cells_of(self, scores: np.ndarray) -> list[tuple[int, ...]]:
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if scores.shape[1] != self.d:
            raise EngineError(
                f"score arity {scores.shape[1]} != dimensionality {self.d}"
            )
        return [tuple(row) for row in cell_coords(scores, self.step).tolist()]

    def insert(self, scores: np.ndarray) -> None:
        """Account for newly inserted tuples (rows of signed scores)."""
        for cell in self._cells_of(scores):
            self._counts[cell] = self._counts.get(cell, 0) + 1

    def remove(self, scores: np.ndarray) -> None:
        """Account for deleted tuples; empties are pruned."""
        for cell in self._cells_of(scores):
            current = self._counts.get(cell, 0)
            if current <= 0:
                raise EngineError(f"removing from empty cell {cell}")
            if current == 1:
                del self._counts[cell]
            else:
                self._counts[cell] = current - 1

    def count(self, coords: Sequence[int]) -> int:
        return self._counts.get(tuple(int(c) for c in coords), 0)

    def is_empty(self, coords: Sequence[int]) -> bool:
        """The same skip-empty interface the Explorer consumes."""
        return self.count(coords) == 0

    @property
    def nonempty_cells(self) -> int:
        return len(self._counts)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountingGridIndex(nonempty={len(self._counts)}, "
            f"total={self.total}, d={self.d})"
        )
