"""Unit and property tests for OSP aggregates (paper section 2.6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregateSpec,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.engine.expression import col
from repro.exceptions import OSPViolationError, QueryModelError

ALL = (COUNT, SUM, MIN, MAX, AVG)

value_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=0,
    max_size=50,
).map(np.array)


class TestLookup:
    @pytest.mark.parametrize("name", ["COUNT", "sum", "Min", "MAX", "avg"])
    def test_builtins(self, name):
        assert get_aggregate(name).name == name.upper()

    @pytest.mark.parametrize("name", ["STDDEV", "variance", "median"])
    def test_non_osp_rejected(self, name):
        with pytest.raises(OSPViolationError, match="optimal substructure"):
            get_aggregate(name)

    def test_unknown_rejected(self):
        with pytest.raises(QueryModelError):
            get_aggregate("FANCY")


class TestSemantics:
    def test_count(self):
        assert COUNT.finalize(COUNT.lift(np.array([5.0, 6.0]))) == 2.0
        assert COUNT.finalize(COUNT.identity()) == 0.0

    def test_sum(self):
        assert SUM.finalize(SUM.lift(np.array([1.0, 2.5]))) == 3.5

    def test_min_max_empty_is_nan(self):
        assert math.isnan(MIN.finalize(MIN.identity()))
        assert math.isnan(MAX.finalize(MAX.identity()))

    def test_avg(self):
        state = AVG.lift(np.array([2.0, 4.0]))
        assert state == (6.0, 2.0)
        assert AVG.finalize(state) == 3.0
        assert math.isnan(AVG.finalize(AVG.identity()))

    def test_monotone_flags(self):
        assert COUNT.monotone_expanding
        assert SUM.monotone_expanding
        assert MAX.monotone_expanding
        assert not MIN.monotone_expanding
        assert not AVG.monotone_expanding

    def test_state_from_sql_null_handling(self):
        assert SUM.state_from_sql((None,)) == (0.0,)
        assert MIN.state_from_sql((None,)) == (math.inf,)
        assert MAX.state_from_sql((None,)) == (-math.inf,)


class TestOSPProperty:
    """The defining property: combine over a partition == lift of whole."""

    @pytest.mark.parametrize("aggregate", ALL, ids=lambda a: a.name)
    @settings(max_examples=100, deadline=None)
    @given(value_arrays, value_arrays)
    def test_combine_is_lift_of_union(self, aggregate, left, right):
        combined = aggregate.combine(aggregate.lift(left), aggregate.lift(right))
        whole = aggregate.lift(np.concatenate([left, right]))
        for part_a, part_b in zip(combined, whole):
            assert part_a == pytest.approx(part_b, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("aggregate", ALL, ids=lambda a: a.name)
    def test_identity_is_neutral(self, aggregate):
        state = aggregate.lift(np.array([1.0, 2.0, 3.0]))
        assert aggregate.combine(state, aggregate.identity()) == state
        assert aggregate.combine(aggregate.identity(), state) == state

    @pytest.mark.parametrize("aggregate", ALL, ids=lambda a: a.name)
    @settings(max_examples=50, deadline=None)
    @given(value_arrays, value_arrays, value_arrays)
    def test_combine_associative(self, aggregate, a, b, c):
        left = aggregate.combine(
            aggregate.combine(aggregate.lift(a), aggregate.lift(b)),
            aggregate.lift(c),
        )
        right = aggregate.combine(
            aggregate.lift(a),
            aggregate.combine(aggregate.lift(b), aggregate.lift(c)),
        )
        for part_a, part_b in zip(left, right):
            assert part_a == pytest.approx(part_b, rel=1e-9, abs=1e-9)


class TestUserDefined:
    def test_sum_of_squares(self):
        ssq = UserDefinedAggregate(
            "ssq",
            identity=(0.0,),
            combine=lambda a, b: (a[0] + b[0],),
            lift=lambda values: (float(np.sum(values**2)),),
            monotone_expanding=True,
        )
        assert ssq.name == "SSQ"
        state = ssq.combine(
            ssq.lift(np.array([1.0, 2.0])), ssq.lift(np.array([3.0]))
        )
        assert ssq.finalize(state) == 14.0

    def test_sql_rendering_optional(self):
        uda = UserDefinedAggregate(
            "x", (0.0,), lambda a, b: a, lambda v: (0.0,)
        )
        with pytest.raises(OSPViolationError):
            uda.sql_selects("t.a")


class TestAggregateSpec:
    def test_count_star(self):
        spec = AggregateSpec(COUNT)
        assert spec.describe() == "COUNT(*)"

    def test_needs_attribute(self):
        with pytest.raises(QueryModelError):
            AggregateSpec(SUM)
        spec = AggregateSpec(SUM, col("t.a"))
        assert spec.describe() == "SUM(t.a)"
