"""Grid bitmap index (paper section 7.4).

The paper: divide each attribute dimension into equi-width parts,
assign one bit per multi-dimensional grid cell, set the bit when the
cell contains at least one tuple, and consult the index in the Explore
phase to skip executing provably-empty cell queries.

Our grid lives in refinement-score space (equivalent to the paper's
attribute-space grid for skip-empty purposes, because the refined-space
cell is exactly an attribute-space box). A tuple's cell is its level
per dimension, the first grid coordinate whose refined predicate admits
its key (:func:`~repro.engine.backends.first_levels`), as in every
cell and grid read. The index stores the set of non-empty cells;
:meth:`is_empty` is an O(1) membership test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class GridBitmapIndex:
    """Set-of-nonempty-cells index over a refined space grid, built
    from each tuple's level per dimension: an ``(n, d)`` integer
    array."""

    def __init__(self, levels: np.ndarray) -> None:
        self._nonempty = frozenset(map(tuple, levels.tolist()))
        self._d = levels.shape[1]

    def is_empty(self, coords: Sequence[int]) -> bool:
        return tuple(int(c) for c in coords) not in self._nonempty

    @property
    def nonempty_cells(self) -> int:
        return len(self._nonempty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridBitmapIndex(nonempty={len(self._nonempty)}, d={self._d})"
