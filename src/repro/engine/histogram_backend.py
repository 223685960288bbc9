"""Histogram-based estimation evaluation layer.

The paper (section 3): the evaluation layer "can be replaced with other
techniques such as estimation, and/or sampling". This layer is the
*estimation* variant: it scans the data exactly once at prepare time to
build a per-dimension equi-width histogram over signed refinement
scores, then answers every cell/box request from the histograms under
the attribute-value-independence assumption — the same assumption
relational optimizers make for cardinality estimation.

Per-query cost is O(bins) with zero tuple access, so ACQUIRE's entire
search costs barely more than one scan. The price is estimation error:
exact on independent dimensions (up to histogram resolution), biased
when dimensions correlate. Supported aggregates: COUNT exactly in this
spirit; SUM via the mean-value heuristic (estimated count x the
dimension-agnostic mean of the aggregate attribute). MIN/MAX are not
estimable from marginal histograms and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.aggregates import AggState
from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.engine.backends import (
    EvaluationLayer,
    Shell,
    TopKAdmission,
    check_box_arity,
    shell_mask,
)
from repro.engine.catalog import Database
from repro.engine.executor import DEFAULT_MAX_ROWS, build_candidate
from repro.exceptions import EngineError, OSPViolationError

_SUPPORTED = {"COUNT", "SUM", "AVG"}


@dataclass
class _ScoreHistogram:
    """Equi-width histogram over one dimension's signed scores."""

    edges: np.ndarray  # bin edges, length bins + 1
    counts: np.ndarray  # per-bin tuple counts, length bins
    total: int

    def fraction_at_most(self, score: float) -> float:
        """Estimated fraction of tuples with signed score <= score."""
        if self.total == 0:
            return 0.0
        if score < self.edges[0]:
            return 0.0
        if score >= self.edges[-1]:
            return 1.0
        index = int(np.searchsorted(self.edges, score, side="right") - 1)
        index = min(max(index, 0), len(self.counts) - 1)
        below = float(np.sum(self.counts[:index]))
        left, right = self.edges[index], self.edges[index + 1]
        inside = self.counts[index]
        if right > left:
            below += inside * (score - left) / (right - left)
        return below / self.total

    def fraction_in(self, low: float, high: float) -> float:
        """Estimated fraction with score in (low, high]."""
        return max(
            self.fraction_at_most(high) - self.fraction_at_most(low), 0.0
        )


@dataclass
class _HistogramPrepared:
    query: Query
    histograms: list[_ScoreHistogram]
    total_rows: int
    mean_agg_value: float
    dim_caps: list[float]
    useful_max: list[float]


class HistogramBackend(EvaluationLayer):
    """Estimation layer: one scan, then histogram arithmetic only."""

    def __init__(
        self,
        database: Database,
        bins: int = 128,
        max_rows: int = DEFAULT_MAX_ROWS,
    ) -> None:
        super().__init__()
        if bins < 2:
            raise EngineError(f"need at least 2 histogram bins, got {bins}")
        self.database = database
        self.bins = bins
        self.max_rows = max_rows

    # ------------------------------------------------------------------
    def prepare(
        self, query: Query, dim_caps: Optional[Sequence[float]] = None
    ) -> _HistogramPrepared:
        aggregate = query.constraint.spec.aggregate
        if aggregate.name not in _SUPPORTED:
            raise OSPViolationError(
                f"{aggregate.name} cannot be estimated from marginal "
                "histograms; use an exact evaluation layer"
            )
        if dim_caps is None:
            dim_caps = [0.0] * query.dimensionality
        caps = [float(cap) for cap in dim_caps]
        with self._timed():
            candidate = build_candidate(
                self.database, query, caps, self.max_rows
            )
            histograms = []
            for dim in range(candidate.scores.shape[1]):
                scores = candidate.scores[:, dim]
                if len(scores) == 0:
                    edges = np.array([0.0, 1.0])
                    counts = np.zeros(1, dtype=np.int64)
                else:
                    low = float(np.min(scores))
                    high = float(np.max(scores))
                    if high == low:
                        high = low + 1e-9
                    counts, edges = np.histogram(
                        scores, bins=self.bins, range=(low, high)
                    )
                histograms.append(
                    _ScoreHistogram(
                        edges=edges,
                        counts=counts.astype(np.int64),
                        total=len(scores),
                    )
                )
            mean_value = (
                float(np.mean(candidate.agg_values))
                if candidate.nrows
                else 0.0
            )
        self._count_rows(candidate.rows_scanned)
        return _HistogramPrepared(
            query=query,
            histograms=histograms,
            total_rows=candidate.nrows,
            mean_agg_value=mean_value,
            dim_caps=caps,
            useful_max=list(candidate.useful_max_scores),
        )

    def useful_max_scores(self, prepared: _HistogramPrepared) -> list[float]:
        return list(prepared.useful_max)

    # ------------------------------------------------------------------
    def _estimate_count(
        self,
        prepared: _HistogramPrepared,
        fractions: Sequence[float],
    ) -> float:
        estimate = float(prepared.total_rows)
        for fraction in fractions:
            estimate *= fraction
        return estimate

    def _state_for(
        self, prepared: _HistogramPrepared, count: float
    ) -> AggState:
        aggregate = prepared.query.constraint.spec.aggregate
        if aggregate.name == "COUNT":
            return (count,)
        if aggregate.name == "SUM":
            return (count * prepared.mean_agg_value,)
        # AVG: (sum, count) with the mean-value heuristic.
        return (count * prepared.mean_agg_value, count)

    def execute_cell(
        self,
        prepared: _HistogramPrepared,
        space: RefinedSpace,
        coords: Sequence[int],
    ) -> AggState:
        with self._timed():
            fractions = []
            for histogram, (low, high) in zip(
                prepared.histograms, space.cell_ranges(coords)
            ):
                if low < 0:
                    fractions.append(histogram.fraction_at_most(0.0))
                else:
                    fractions.append(histogram.fraction_in(low, high))
            state = self._state_for(
                prepared, self._estimate_count(prepared, fractions)
            )
        self._count_query("cell")
        return state

    def _grid_pass(
        self,
        prepared: _HistogramPrepared,
        space: RefinedSpace,
        lo: Sequence[int],
        hi: Sequence[int],
        shell: Optional[Shell] = None,
    ) -> np.ndarray:
        """One estimation sweep over the inclusive ``[lo, hi]`` box.

        Under attribute-value independence a cell's estimated count is
        ``total * f_1 * ... * f_d`` with ``f_i`` the dimension-i annulus
        fraction — so any rectangular box of the grid is the outer
        product of d per-level fraction vectors. The broadcasted
        multiply applies the factors in the same order as the serial
        per-cell loop, keeping every estimate bit-identical to
        :meth:`execute_cell`. Cells outside ``shell`` are then reset to
        the identity state.
        """
        aggregate = prepared.query.constraint.spec.aggregate
        step = space.step
        with self._timed():
            count = np.array(float(prepared.total_rows))
            for histogram, low, high in zip(prepared.histograms, lo, hi):
                fractions = np.empty(high - low + 1)
                for level in range(low, high + 1):
                    if level == 0:
                        fractions[0] = histogram.fraction_at_most(0.0)
                    else:
                        fractions[level - low] = histogram.fraction_in(
                            (level - 1) * step, level * step
                        )
                count = count[..., None] * fractions
            if aggregate.name == "COUNT":
                tensor = count[..., None]
            elif aggregate.name == "SUM":
                tensor = (count * prepared.mean_agg_value)[..., None]
            else:  # AVG: (sum, count) with the mean-value heuristic.
                tensor = np.stack(
                    (count * prepared.mean_agg_value, count), axis=-1
                )
            tensor = np.ascontiguousarray(tensor, dtype=np.float64)
            mask = shell_mask(space, lo, hi, shell)
            if mask is not None:
                tensor[~mask] = aggregate.identity()
        self._count_grid(
            lo, hi,
            cells=None if mask is None else int(np.count_nonzero(mask)),
        )
        return tensor

    def execute_box(
        self, prepared: _HistogramPrepared, scores: Sequence[float]
    ) -> AggState:
        check_box_arity(scores, len(prepared.histograms))
        with self._timed():
            fractions = [
                histogram.fraction_at_most(score)
                for histogram, score in zip(prepared.histograms, scores)
            ]
            state = self._state_for(
                prepared, self._estimate_count(prepared, fractions)
            )
        self._count_query("box")
        return state

    def topk_admission(
        self, prepared: _HistogramPrepared, k: int
    ) -> TopKAdmission:
        raise EngineError(
            "top-k ranking needs tuple access; the histogram layer only "
            "estimates aggregates"
        )

    def fetch_rows(
        self,
        prepared: _HistogramPrepared,
        scores: Sequence[float],
        limit: Optional[int] = None,
    ) -> list[dict]:
        raise EngineError(
            "the histogram layer stores no tuples; re-run the refined "
            "query on an exact evaluation layer to fetch rows"
        )
