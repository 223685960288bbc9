"""The one admission rule: a refined predicate admits a tuple exactly
when its key lies within the predicate's key bounds at the score
(``first_levels`` and ``admitted`` in ``repro.engine.backends``).

Every exact layer buckets and filters by these two helpers, so their
edges are checked here once: keys on a level's bound, one ulp above
it, under steps that are not exact binary fractions, inside the
original interval, NULL keys against omitted comparisons, and the
categorical ladder against ``accepted_at``.
"""

import math

import numpy as np
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
from repro.engine.backends import admitted, first_levels
from repro.engine.expression import col


def _select(direction=Direction.UPPER, interval=Interval(0.0, 50.0)):
    return SelectPredicate(
        name="p", expr=col("t.x"), interval=interval, direction=direction
    )


def _ladder(step: float, levels: int) -> list[float]:
    return [coord * step for coord in range(levels)]


def _first_by_scan(predicate, keys, scores) -> np.ndarray:
    """The first level admitting each key, one ``admitted`` per level."""
    first = np.full(len(keys), len(scores))
    for level in reversed(range(len(scores))):
        first[admitted(predicate, keys, scores[level])] = level
    return first


class TestSelectLevels:
    def test_key_on_a_bound_is_that_level(self):
        """Level c of ``x <= 50`` (width 50) at step 5 admits keys up to
        50 + 2.5c: a key on that bound is first admitted at c."""
        keys = np.array([50.0, 52.5, 55.0, 57.5])
        assert first_levels(_select(), keys, _ladder(5.0, 6)).tolist() == [
            0, 1, 2, 3,
        ]

    def test_key_just_above_a_bound_is_the_next_level(self):
        keys = np.nextafter(np.array([50.0, 52.5, 55.0]), np.inf)
        assert first_levels(_select(), keys, _ladder(5.0, 6)).tolist() == [
            1, 2, 3,
        ]

    def test_keys_inside_the_interval_are_level_zero(self):
        """Keys with negative PScores, down to the frozen lower end."""
        keys = np.array([0.0, 12.5, 49.999])
        assert first_levels(_select(), keys, _ladder(5.0, 4)).tolist() == [
            0, 0, 0,
        ]

    def test_unadmitted_keys_lie_past_the_ladder(self):
        """A key past the last level, or on the frozen side, gets the
        ladder's length."""
        keys = np.array([60.0, -1.0])
        assert first_levels(_select(), keys, _ladder(5.0, 4)).tolist() == [
            4, 4,
        ]

    def test_lower_and_point_directions(self):
        lower = _select(Direction.LOWER, Interval(50.0, 100.0))
        point = _select(Direction.POINT, Interval.point(50.0))
        ladder = _ladder(10.0, 4)
        # LOWER widens down by 5 a level; POINT by 10 each side.
        assert first_levels(
            lower, np.array([50.0, 45.0, np.nextafter(45.0, -np.inf), 101.0]),
            ladder,
        ).tolist() == [0, 1, 2, 4]
        assert first_levels(
            point, np.array([50.0, 60.0, 40.0, np.nextafter(40.0, -np.inf)]),
            ladder,
        ).tolist() == [0, 1, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(min_value=1.0, max_value=50.0),
        hi=st.floats(min_value=-1e6, max_value=1e6),
        width=st.floats(min_value=1e-3, max_value=1e4),
        level=st.integers(min_value=1, max_value=30),
    )
    def test_bounds_of_any_step(self, gamma, hi, width, level):
        """For any step, exactly representable or not, a key equal to a
        level's upper bound is first admitted at the first level with
        that bound, and the next double above it one level later (or
        later still, where the bound does not move)."""
        predicate = _select(interval=Interval(hi - width, hi))
        step = gamma / 3.0
        ladder = _ladder(step, level + 3)
        bound = predicate.key_bounds(level * step)[1]
        keys = np.array([bound, np.nextafter(bound, np.inf)])
        uppers = np.array([predicate.key_bounds(score)[1] for score in ladder])
        on, above = first_levels(predicate, keys, ladder).tolist()
        assert on == int(np.argmax(uppers >= bound)) <= level
        assert above == int(np.argmax(uppers > bound)) > level

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(
            st.one_of(
                st.floats(min_value=-100.0, max_value=200.0),
                st.just(math.nan),
            ),
            max_size=30,
        ),
        direction=st.sampled_from(list(Direction)),
        step=st.floats(min_value=0.5, max_value=40.0),
    )
    def test_first_levels_equal_a_scan_of_admitted(self, keys, direction, step):
        interval = (
            Interval.point(50.0) if direction is Direction.POINT
            else Interval(20.0, 50.0)
        )
        predicate = _select(direction, interval)
        keys = np.array(keys, dtype=np.float64)
        ladder = _ladder(step, 8)
        assert (
            first_levels(predicate, keys, ladder).tolist()
            == _first_by_scan(predicate, keys, ladder).tolist()
        )


def _kinds():
    """One predicate of every kind and direction."""
    return [
        _select(Direction.UPPER, Interval(20.0, 50.0)),
        _select(Direction.LOWER, Interval(20.0, 50.0)),
        _select(Direction.POINT, Interval.point(50.0)),
        JoinPredicate(
            name="j", left=col("a.x"), right=col("b.y"), tolerance=2.5
        ),
        TestCategoricalLevels._predicate(),
    ]


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=-300.0, max_value=300.0), min_size=1, max_size=20
    ),
    kind=st.integers(min_value=0, max_value=4),
)
def test_ladder_bounds_equal_scalar_bounds(scores, kind):
    """``first_levels`` takes a ladder's bounds in one array call of
    ``key_bounds``, ``admitted`` one score's: the two agree bit for bit,
    clamps included."""
    predicate = _kinds()[kind]
    lower, upper = np.broadcast_arrays(*predicate.key_bounds(np.array(scores)))
    expected = np.array(
        [predicate.key_bounds(score) for score in scores], dtype=np.float64
    )
    assert lower.tobytes() == expected[:, 0].tobytes()
    assert upper.tobytes() == expected[:, 1].tobytes()


class TestNullKeys:
    def test_omitted_comparisons_admit_null(self):
        """An infinite bound is a comparison the SQL omits: it admits a
        NULL (NaN) key, as SQL does; a finite bound never does."""
        keys = np.array([np.nan, 10.0])
        unbounded = _select(interval=Interval(-math.inf, math.inf))
        half = _select(interval=Interval(-math.inf, 50.0))
        assert admitted(unbounded, keys, 0.0).tolist() == [True, True]
        assert admitted(half, keys, 0.0).tolist() == [False, True]
        assert first_levels(unbounded, keys, [0.0, 5.0]).tolist() == [0, 0]
        assert first_levels(half, keys, [0.0, 5.0]).tolist() == [2, 0]


class TestJoinLevels:
    def test_band_bounds_the_distance_above(self):
        join = JoinPredicate(
            name="j", left=col("a.x"), right=col("b.y"), tolerance=0.0
        )
        assert join.key_bounds(0.0) == (-math.inf, 0.0)
        keys = np.array([0.0, 1.0, np.nextafter(1.0, np.inf), np.nan])
        # Denominator 100: score s widens the band by s.
        assert first_levels(join, keys, [0.0, 1.0, 2.0]).tolist() == [
            0, 1, 2, 3,
        ]


class TestCategoricalLevels:
    @staticmethod
    def _predicate() -> CategoricalPredicate:
        tree = OntologyTree(root="World")
        tree.add_path("US", "East", "Boston")
        tree.add_path("US", "East", "NewYork")
        tree.add_path("US", "West", "Seattle")
        tree.add_path("EU", "Paris")
        return CategoricalPredicate(
            name="c",
            column=col("t.city"),
            accepted=frozenset({"Boston"}),
            ontology=tree,
        )

    def test_levels_follow_accepted_at(self):
        """A value's distance is first admitted at the first level
        whose ``accepted_at`` lists it; a value outside the tree, or
        None, never."""
        predicate = self._predicate()
        values = np.array(
            ["Boston", "NewYork", "Seattle", "Paris", "Mars", None],
            dtype=object,
        )
        ladder = _ladder(predicate.level_scale / 2, 8)
        levels = first_levels(predicate, predicate.distances(values), ladder)
        expected = [
            next(
                (c for c, score in enumerate(ladder)
                 if value in predicate.accepted_at(score)),
                len(ladder),
            )
            for value in values
        ]
        assert levels.tolist() == expected
        assert expected[-2:] == [len(ladder)] * 2
