"""Unit and property tests for predicates (paper section 2.2-2.4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import Interval
from repro.core.ontology import OntologyTree
from repro.core.predicate import (
    CategoricalPredicate,
    Direction,
    JoinPredicate,
    SelectPredicate,
)
from repro.engine.expression import col
from repro.exceptions import NotRefinableError, QueryModelError


def upper_pred(lo=0.0, hi=50.0, den=None, refinable=True):
    return SelectPredicate(
        name="p",
        expr=col("t.y"),
        interval=Interval(lo, hi),
        direction=Direction.UPPER,
        denominator=den,
        refinable=refinable,
    )


class TestSelectPredicate:
    def test_paper_decomposition(self):
        """(B.y < 50) with min(B.y)=0 -> P_F = B.y, P_I = (0, 50)."""
        predicate = upper_pred()
        assert predicate.interval == Interval(0, 50)
        assert predicate.effective_denominator == 50.0

    def test_upper_expansion(self):
        predicate = upper_pred()
        # PScore 20 with denominator 50 -> +10 units (paper Example 3).
        assert predicate.interval_at(20.0) == Interval(0, 60)

    def test_lower_expansion(self):
        predicate = SelectPredicate(
            name="p",
            expr=col("t.y"),
            interval=Interval(10, 100),
            direction=Direction.LOWER,
        )
        assert predicate.interval_at(10.0) == Interval(1.0, 100)

    def test_point_expansion_symmetric(self):
        predicate = SelectPredicate(
            name="p",
            expr=col("t.y"),
            interval=Interval.point(10),
            direction=Direction.POINT,
        )
        # Point predicates use the denominator-100 convention.
        assert predicate.interval_at(5.0) == Interval(5.0, 15.0)

    def test_point_requires_point_interval(self):
        with pytest.raises(QueryModelError):
            SelectPredicate(
                name="p",
                expr=col("t.y"),
                interval=Interval(0, 1),
                direction=Direction.POINT,
            )

    def test_contraction_clamps_at_point(self):
        predicate = upper_pred()
        assert predicate.interval_at(-100.0) == Interval(0, 0)
        assert predicate.interval_at(-1000.0) == Interval(0, 0)
        assert predicate.max_shrink_score == 100.0

    def test_norefine_blocks_nonzero_scores(self):
        predicate = upper_pred(refinable=False)
        assert predicate.interval_at(0.0) == Interval(0, 50)
        with pytest.raises(NotRefinableError):
            predicate.interval_at(1.0)
        with pytest.raises(NotRefinableError):
            predicate.interval_at(-1.0)

    def test_scores_of_values_signed(self):
        predicate = upper_pred()
        scores = predicate.scores_of_values(np.array([-1.0, 0.0, 25.0, 50.0, 60.0]))
        assert scores[0] == math.inf  # below the frozen side
        assert scores[1] == pytest.approx(-100.0)  # survives full shrink
        assert scores[2] == pytest.approx(-50.0)
        assert scores[3] == pytest.approx(0.0)
        assert scores[4] == pytest.approx(20.0)

    def test_norefine_scores_infinite_outside(self):
        predicate = upper_pred(refinable=False)
        scores = predicate.scores_of_values(np.array([25.0, 60.0]))
        assert scores[0] < 0
        assert scores[1] == math.inf

    def test_max_useful_score(self):
        predicate = upper_pred()
        assert predicate.max_useful_score(Interval(0, 100)) == pytest.approx(100.0)
        assert predicate.max_useful_score(Interval(0, 40)) == 0.0

    def test_weight_and_limit_validation(self):
        with pytest.raises(QueryModelError):
            upper_pred().with_weight(0.0)
        with pytest.raises(QueryModelError):
            upper_pred().with_limit(-1.0)

    def test_with_norefine_copy(self):
        pinned = upper_pred().with_norefine()
        assert not pinned.refinable
        assert upper_pred().refinable

    def test_sql_condition(self):
        predicate = upper_pred()
        assert predicate.sql_condition(0.0) == "t.y >= 0.0 AND t.y <= 50.0"
        assert "60.0" in predicate.sql_condition(20.0)


class TestJoinPredicate:
    def join(self, refinable=True, tolerance=0.0):
        return JoinPredicate(
            name="j",
            left=col("a.x"),
            right=col("b.x"),
            refinable=refinable,
            tolerance=tolerance,
        )

    def test_equi_join_denominator_100(self):
        """Paper 2.3: equality join predicates use denominator 100."""
        predicate = self.join()
        assert predicate.is_equi
        assert predicate.denominator == 100.0

    def test_band_refinement_paper_2_4(self):
        """PScore 10 -> ||A.x - B.x|| <= 10 (paper section 2.4)."""
        assert self.join().band_at(10.0) == 10.0

    def test_scores_of_deltas(self):
        scores = self.join().scores_of_values(np.array([0.0, 5.0]))
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(5.0)

    def test_tolerance_shrink(self):
        predicate = self.join(tolerance=4.0)
        assert predicate.band_at(-2.0) == 2.0
        assert predicate.band_at(-100.0) == 0.0  # clamp
        assert predicate.max_shrink_score == pytest.approx(4.0)

    def test_norefine_join(self):
        predicate = self.join(refinable=False)
        with pytest.raises(NotRefinableError):
            predicate.band_at(1.0)
        scores = predicate.scores_of_values(np.array([0.0, 1.0]))
        assert scores[0] == 0.0
        assert scores[1] == math.inf

    def test_sql(self):
        assert self.join().sql_condition(0.0) == "a.x = b.x"
        assert self.join().sql_condition(10.0) == "ABS(a.x - b.x) <= 10.0"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(QueryModelError):
            self.join(tolerance=-1.0)


class TestCategoricalPredicate:
    def tree(self):
        return OntologyTree.from_mapping(
            {
                "ROOT": ["US", "EU"],
                "US": ["Boston", "NewYork"],
                "EU": ["Paris", "Berlin"],
            }
        )

    def predicate(self, accepted=("Boston",), refinable=True):
        return CategoricalPredicate(
            name="c",
            column=col("t.city"),
            accepted=frozenset(accepted),
            ontology=self.tree(),
            refinable=refinable,
        )

    def test_level_scale(self):
        predicate = self.predicate()
        assert predicate.level_scale == pytest.approx(50.0)  # depth 2

    def test_expansion_levels(self):
        predicate = self.predicate()
        assert predicate.accepted_at(0.0) == frozenset({"Boston"})
        level1 = predicate.accepted_at(50.0)
        assert {"Boston", "NewYork", "US"} <= level1
        assert "Paris" not in level1
        level2 = predicate.accepted_at(100.0)
        assert "Paris" in level2

    def test_scores_of_values(self):
        predicate = self.predicate()
        scores = predicate.scores_of_values(
            np.array(["Boston", "NewYork", "Paris", "Mars"], dtype=object)
        )
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(50.0)
        assert scores[2] == pytest.approx(100.0)
        assert scores[3] == math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["ROOT", "US", "EU", "Boston", "NewYork", "Paris", "Berlin",
                 "Mars", "", None]
            ),
            max_size=40,
        ),
        st.sets(
            st.sampled_from(["US", "Boston", "Paris", "Berlin"]), min_size=1
        ),
        st.booleans(),
    )
    def test_scores_of_values_match_the_per_row_loop(
        self, values, accepted, refinable
    ):
        """One ontology walk per distinct value, scattered back: the
        same scores as walking every row, ``inf`` outside the tree (None
        included) and for NOREFINE predicates past the original set."""
        predicate = self.predicate(accepted, refinable=refinable)
        column = np.array(values, dtype=object)
        walks = []
        distance = predicate.ontology.distance

        def counting(accepted_values, value):
            walks.append(value)
            return distance(accepted_values, value)

        expected = np.array(
            [distance(predicate.accepted, value) for value in column],
            dtype=np.float64,
        ) * predicate.level_scale
        if not refinable:
            expected = np.where(expected > 0, np.inf, expected)
        predicate.ontology.distance = counting
        scores = predicate.scores_of_values(column)
        assert scores.dtype == np.float64 and scores.shape == (len(values),)
        assert scores.tobytes() == expected.tobytes()
        assert len(walks) == len(set(walks)) and set(walks) == set(values)

    def test_sql_annulus_fresh_values_only(self):
        predicate = self.predicate()
        base = predicate.sql_annulus(-1.0, 0.0)
        assert "'Boston'" in base and "NewYork" not in base
        ring = predicate.sql_annulus(0.0, 50.0)
        assert "'NewYork'" in ring and "'Boston'" not in ring

    def test_empty_accepted_rejected(self):
        with pytest.raises(QueryModelError):
            self.predicate(accepted=())

    def test_no_shrink(self):
        assert self.predicate().max_shrink_score == 0.0
        assert self.predicate().level_at(-10.0) == 0


class TestScoreIntervalConsistency:
    """scores_of_values and interval_at must agree: a value is inside
    interval_at(s) iff its score <= s."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-200, max_value=300, allow_nan=False),
        st.floats(min_value=-99, max_value=300, allow_nan=False),
        st.sampled_from([Direction.UPPER, Direction.LOWER]),
    )
    def test_select_consistency(self, value, score, direction):
        predicate = SelectPredicate(
            name="p",
            expr=col("t.y"),
            interval=Interval(0, 50),
            direction=direction,
        )
        tuple_score = float(predicate.scores_of_values(np.array([value]))[0])
        admitted = predicate.interval_at(score).contains(value)
        if math.isinf(tuple_score):
            assert not admitted or score < -99.9
        elif tuple_score <= score:
            assert admitted
        else:
            # A score gap below one ulp of the endpoint vanishes in the
            # interval arithmetic (50.0 + -1e-38 == 50.0), so the value
            # may still be admitted when both scores map to the same
            # interval.
            assert not admitted or (
                predicate.interval_at(score)
                == predicate.interval_at(tuple_score)
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0, max_value=500, allow_nan=False),
        st.floats(min_value=0, max_value=400, allow_nan=False),
    )
    def test_join_consistency(self, delta, score):
        predicate = JoinPredicate(
            name="j", left=col("a.x"), right=col("b.x")
        )
        tuple_score = float(predicate.scores_of_values(np.array([delta]))[0])
        if abs(tuple_score - score) < 1e-9:
            return  # exact float boundary: either bucketing is fine
        admitted = delta <= predicate.band_at(score)
        assert admitted == (tuple_score <= score)
