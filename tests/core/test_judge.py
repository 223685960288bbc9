"""The batch judge of ``Acquire._search`` against the per-point loop.

``reference_search`` is the search loop as it was before layers were
judged in numpy: one Python step per examined grid query, reading each
value lazily (a grid engine grows its ball over the whole layer at the
first pull). It stays here, and only here, as the reference the judge
must reproduce exactly: the same answers in the same order, the same
closest, and the same counters, backend counters included.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acquire import (
    _LAYER_EPS,
    Acquire,
    AcquireConfig,
    _layers_nest,
)
from repro.core.aggregates import (
    AggregateSpec,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.core.contraction import ContractionSpace
from repro.core.error import (
    HingeError,
    RelativeError,
    default_error_for,
    error_array,
)
from repro.core.expand import LAYER_DECIMALS, make_traversal
from repro.core.grid_cache import GridTensorCache
from repro.core.grid_explore import GridExplorer
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.scoring import LInfNorm, LpNorm, MaxConstraintDistance
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend

from tests.conftest import count_query


# ----------------------------------------------------------------------
# The reference: the per-point search loop
# ----------------------------------------------------------------------
def _lazy_values(engine, reachable):
    """One value per pull, read as the per-point loop read it."""
    if isinstance(engine, GridExplorer):
        engine.reach(np.array(reachable, dtype=np.intp))
    for coords in reachable:
        yield engine.compute_aggregate(coords)


def _reference_reachable(layers, space, pruned):
    reached = {space.origin}
    unexamined = 1
    for layer in layers:
        for point in layer:
            coords = point[0]
            if coords not in reached:
                continue
            yield [point]
            unexamined -= 1
            if coords not in pruned:
                for dim, limit in enumerate(space.max_coords):
                    if coords[dim] < limit:
                        successor = (
                            coords[:dim] + (coords[dim] + 1,) + coords[dim + 1:]
                        )
                        if successor not in reached:
                            reached.add(successor)
                            unexamined += 1
            if not unexamined:
                return


def reference_search(
    self, config, explorers, stats, original_value, started, layer_scope
):
    """``Acquire._search`` as a per-point loop (the judge's reference)."""
    explorer, *extra_explorers = explorers
    space, prepared = explorer.space, explorer.prepared
    query = space.query
    constraint = query.constraint
    aggregate = constraint.spec.aggregate
    target = constraint.target
    error_fn = config.error_fn or default_error_for(constraint.op)
    distance = MaxConstraintDistance()
    extras = [
        (extra.target, default_error_for(extra.op))
        for extra in query.extra_constraints
    ]
    answers = []
    closest_rank = None
    closest = None
    answer_layers = []

    def answer_threshold():
        if len(answer_layers) < config.top_k:
            return math.inf
        return answer_layers[config.top_k - 1]

    check_overshoot = (
        not space.contracts
        and constraint.op is ConstraintOp.EQ
        and aggregate.monotone_expanding
        and not extras
        and _layers_nest(space)
    )
    layer_key = None
    layer_min_actual = math.inf
    kind = "lp" if space.contracts else "auto"
    layers = make_traversal(space, kind).layers_scored()
    pruned = None
    if (
        space.contracts
        and config.top_k == 1
        and aggregate.monotone_expanding
        and not extras
    ):
        pruned = set()
        layers = _reference_reachable(layers, space, pruned)
    stats.stop_reason = "exhausted"
    stop = False
    for layer_scored in layers:
        first_qscore = layer_scored[0][1]
        if first_qscore > answer_threshold() + _LAYER_EPS:
            stats.stop_reason = "answers"
            break
        if check_overshoot:
            key = round(first_qscore, LAYER_DECIMALS)
            if layer_key is None:
                layer_key = key
            elif key != layer_key:
                if layer_min_actual > target * (1 + config.delta):
                    stats.stop_reason = "overshoot"
                    break
                layer_key = key
                layer_min_actual = math.inf
        if stats.grid_queries_examined >= config.max_grid_queries:
            stats.stop_reason = "budget"
            break
        remaining = config.max_grid_queries - stats.grid_queries_examined
        reachable = [coords for coords, _ in layer_scored[:remaining]]
        values = _lazy_values(explorer, reachable)
        extra_values_of = [
            _lazy_values(engine, reachable) for engine in extra_explorers
        ]
        for coords, qscore in layer_scored:
            if qscore > answer_threshold() + _LAYER_EPS:
                stats.stop_reason = "answers"
                stop = True
                break
            if stats.grid_queries_examined >= config.max_grid_queries:
                stats.stop_reason = "budget"
                stop = True
                break
            stats.grid_queries_examined += 1
            stats.last_qscore = qscore
            actual = next(values)
            error = error_fn(target, actual)
            extra_values = ()
            if extras:
                extra_values = tuple(map(next, extra_values_of))
                error = distance.combine(
                    [error] + [
                        extra_error_fn(extra_target, value)
                        for (extra_target, extra_error_fn), value
                        in zip(extras, extra_values)
                    ]
                )
            if check_overshoot:
                # A NaN (empty) value keeps its layer from overshooting.
                layer_min_actual = (
                    actual if math.isnan(actual)
                    else min(layer_min_actual, actual)
                )
            answer = None
            if error <= config.delta:
                answer = self._refined_query(
                    query, space, coords, actual, error,
                    extra_values=extra_values,
                )
            rank = (error, qscore)
            if closest_rank is None or rank < closest_rank:
                closest_rank = rank
                closest = (
                    (coords, actual, error, extra_values)
                    if answer is None else answer
                )
            if answer is not None:
                answers.append(answer)
                answer_layers.append(qscore)
            elif (
                constraint.op is ConstraintOp.EQ
                and not extras
                and space.overshoots(actual, target)
            ):
                candidate = self._repartition(
                    prepared, space, coords, target, error_fn, config, stats,
                )
                if candidate is not None:
                    rank = (candidate.error, candidate.qscore)
                    if rank < closest_rank:
                        closest_rank = rank
                        closest = candidate
                    if candidate.error <= config.delta:
                        answers.append(candidate)
                        answer_layers.append(qscore)
            if pruned is not None and space.overshoots(actual, target):
                pruned.add(coords)
        if stop:
            break

    stats.cells_executed = sum(e.cells_executed for e in explorers)
    stats.cells_skipped = sum(e.cells_skipped for e in explorers)
    if isinstance(explorer, GridExplorer):
        stats.explore_mode = explorer.mode
    stats.layers_explored = len(
        {round(a.qscore, LAYER_DECIMALS) for a in answers}
    )
    stats.execution = layer_scope.snapshot()
    if isinstance(closest, tuple):
        coords, actual, error, extra_values = closest
        closest = self._refined_query(
            query, space, coords, actual, error, extra_values=extra_values,
        )
    answers.sort(key=lambda a: (a.qscore, a.error))
    from repro.core.result import AcquireResult

    return AcquireResult(
        query=query,
        answers=answers,
        closest=closest,
        original_value=original_value,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Comparing two runs bit for bit
# ----------------------------------------------------------------------
def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    return value


def _refined(answer):
    if answer is None:
        return None
    return tuple(
        _bits(getattr(answer, name))
        for name in (
            "pscores", "qscore", "aggregate_value", "error", "coords",
            "extra_values",
        )
    ) + (answer.intervals,)


def _record(result):
    stats = result.stats
    counters = {
        field.name: _bits(getattr(stats, field.name))
        for field in fields(stats)
        if field.name not in ("elapsed_s", "execution")
    }
    execution = {
        field.name: getattr(stats.execution, field.name)
        for field in fields(stats.execution)
        if field.name != "execution_time_s"
    }
    return (
        [_refined(answer) for answer in result.answers],
        _refined(result.closest),
        _bits(result.original_value),
        counters,
        execution,
    )


def _judge_and_reference(make_layer, query, config):
    judged = Acquire(make_layer()).run(query, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Acquire, "_search", reference_search)
        reference = Acquire(make_layer()).run(query, config)
    return judged, reference


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
def _database(seed: int, n: int) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "t",
        {
            "x": np.floor(rng.uniform(0, 100, n)),
            "y": np.floor(rng.uniform(0, 100, n)),
            "z": rng.uniform(0, 100, n),
            "v": np.floor(rng.uniform(0, 10, n)),
            "w": rng.uniform(0, 10, n),
        },
    )
    return database


#: A user-defined mean over (sum, count): object-array blocks.
MEAN = UserDefinedAggregate(
    name="MEAN",
    identity=(0.0, 0.0),
    combine=lambda left, right: (left[0] + right[0], left[1] + right[1]),
    lift=lambda values: (float(np.sum(values)), float(len(values))),
    finalize=lambda state: state[0] / state[1] if state[1] else math.nan,
)


def _aggregate(name):
    return MEAN if name == "MEAN" else get_aggregate(name)


def _constraint(name, column, op, target):
    aggregate = _aggregate(name)
    attribute = col(f"t.{column}") if aggregate.needs_attribute else None
    return AggregateConstraint(AggregateSpec(aggregate, attribute), op, target)


def _target(database, name, column, fraction):
    values = database.table("t").column(column)
    n = len(values)
    if name == "COUNT":
        return max(round(n * fraction), 1)
    if name == "SUM":
        return float(values.sum()) * fraction
    return float(np.quantile(values, min(fraction, 1.0))) if n else 1.0


def _query(database, dims, weights, primary, extra):
    bounds = [30.0, 40.0, 20.0][:dims]
    predicates = tuple(
        SelectPredicate(
            name=f"{column}_le",
            expr=col(f"t.{column}"),
            interval=Interval(0.0, bound),
            direction=Direction.UPPER,
            denominator=100.0,
        ).with_weight(weight)
        for column, bound, weight in zip("xyz", bounds, weights)
    )
    extras = () if extra is None else (extra,)
    return Query.build("q", ("t",), predicates, primary, extra_constraints=extras)


def _custom_error(expected, actual):
    """A user error function: squared relative gap, NaN on NaN."""
    if expected == 0:
        return abs(actual)
    return ((expected - actual) / expected) ** 2


NORMS = {"l1": LpNorm(1), "linf": LInfNorm(), "l2": LpNorm(2)}

MODES = [
    {"explore_mode": "incremental"},
    {"explore_mode": "materialized"},
    {"explore_mode": "auto"},
    {"explore_mode": "auto", "materialize_cell_cap": 4},
]

OPS = [ConstraintOp.EQ, ConstraintOp.GE, ConstraintOp.LE]


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([0, 12, 60]),
    dims=st.integers(1, 3),
    weights=st.sampled_from([(1.0, 1.0, 1.0), (1.0, 0.7, 2.0)]),
    norm=st.sampled_from(sorted(NORMS)),
    primary=st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG", "MEAN"]),
    op=st.sampled_from(OPS),
    fraction=st.floats(0.05, 1.4),
    extra=st.sampled_from([None, "SUM", "MAX", "AVG"]),
    extra_op=st.sampled_from(OPS),
    custom_error=st.booleans(),
    top_k=st.integers(1, 3),
    budget=st.sampled_from([500_000, 1, 7, 40]),
    repartitions=st.sampled_from([0, 8]),
    delta=st.sampled_from([0.0, 0.05, 0.2]),
    mode=st.sampled_from(range(len(MODES))),
    cache=st.booleans(),
)
def test_judge_reproduces_the_per_point_loop(
    seed, n, dims, weights, norm, primary, op, fraction, extra, extra_op,
    custom_error, top_k, budget, repartitions, delta, mode, cache,
):
    """Property: on random small grids the judge answers like the
    per-point loop, in the same order, with the same closest, and does
    the same work, counter for counter."""
    database = _database(seed, n)
    column = "v" if primary in ("SUM", "MEAN") else "w"
    primary_constraint = _constraint(
        primary, column, op, _target(database, primary, column, fraction)
    )
    extra_constraint = None
    if extra is not None:
        extra_constraint = _constraint(
            extra, "w", extra_op,
            _target(database, extra, "w", 1.4 - fraction),
        )
    query = _query(database, dims, weights[:dims], primary_constraint, extra_constraint)
    config = AcquireConfig(
        gamma=20.0,
        delta=delta,
        norm=NORMS[norm],
        top_k=top_k,
        max_grid_queries=budget,
        repartition_iterations=repartitions,
        error_fn=_custom_error if custom_error else None,
        grid_cache=GridTensorCache() if cache else None,
        **MODES[mode],
    )
    judged, reference = _judge_and_reference(
        lambda: MemoryBackend(database), query, config
    )
    assert _record(judged) == _record(reference)


@pytest.mark.parametrize("primary", ["COUNT", "SUM", "MAX"])
@pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("dims", [2, 3])
def test_contraction_prune_matches(primary, fraction, dims):
    """The section 7.2 prune's singleton layers, judged one at a time,
    reach and examine what the per-point loop does."""
    database = _database(7, 80)
    column = "v" if primary == "SUM" else "w"
    constraint = _constraint(
        primary, column, ConstraintOp.LE,
        _target(database, primary, column, fraction),
    )
    query = _query(database, dims, (1.0, 1.0, 1.0)[:dims], constraint, None)
    judged, reference = _judge_and_reference(
        lambda: MemoryBackend(database), query, AcquireConfig(gamma=10.0)
    )
    assert judged.stats.plan_reason == "contraction"
    assert _record(judged) == _record(reference)


# ----------------------------------------------------------------------
# Why a layer's examined prefix is fixed before its values are read
# ----------------------------------------------------------------------
class TestAnswerInsideALayer:
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.7, 2.0)])
    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2), LInfNorm()])
    def test_same_layer_qscores_lie_within_the_eps(self, weights, norm):
        """However a layer's QScores spread (d = 3 makes the step 10/3,
        whose multiples sum to QScores ulps apart), every one is at most
        ``first + _LAYER_EPS`` of any other in the layer, computed in
        floats: an answer in a layer never puts the rest of that layer
        past the answer threshold."""
        query = count_query("data", {"x": 30.0, "y": 30.0, "z": 30.0}, 10)
        query = dataclasses.replace(
            query,
            predicates=tuple(
                predicate.with_weight(weight)
                for predicate, weight in zip(query.predicates, weights)
            ),
        )
        space = RefinedSpace(query, 10.0, [60.0, 60.0, 60.0], norm)
        kind = "lp" if len(set(weights)) > 1 else "auto"
        spread = 0
        for layer in make_traversal(space, kind).layers_scored():
            qscores = [qscore for _, qscore in layer]
            for answer in qscores:
                assert all(q <= answer + _LAYER_EPS for q in qscores)
            spread = max(spread, max(qscores) - min(qscores))
        if isinstance(norm, LpNorm) and norm.p == 1:
            assert spread > 0  # the layers do spread over several floats

    def test_answer_inside_a_layer_does_not_stop_it(self, grid_db):
        """With ``top_k=1`` the first answer sets the threshold inside
        its layer, and the search still examines that whole layer."""
        query = count_query("data", {"x": 30.0, "y": 30.0, "z": 30.0}, 700)
        query = dataclasses.replace(
            query,
            predicates=tuple(
                predicate.with_weight(weight)
                for predicate, weight in zip(query.predicates, (1.0, 0.7, 2.0))
            ),
        )
        config = AcquireConfig(
            gamma=10, delta=0.05, explore_mode="materialized",
            repartition_iterations=0,
        )
        layer = MemoryBackend(grid_db)
        result = Acquire(layer).run(query, config)
        assert result.stats.stop_reason == "answers"
        first = round(result.answers[0].qscore, LAYER_DECIMALS)
        caps = [config.dim_cap_default] * 3
        useful = layer.useful_max_scores(layer.prepare(query, caps))
        space = RefinedSpace(
            query, config.gamma, list(map(min, caps, useful)), config.norm
        )
        examined = 0
        for layer_scored in make_traversal(space).layers_scored():
            examined += len(layer_scored)
            if round(layer_scored[0][1], LAYER_DECIMALS) == first:
                break
        assert result.stats.grid_queries_examined == examined


@pytest.fixture(scope="module")
def grid_db() -> Database:
    rng = np.random.default_rng(123)
    database = Database()
    database.create_table(
        "data",
        {
            "x": rng.uniform(0, 100, 4000),
            "y": rng.uniform(0, 100, 4000),
            "z": rng.uniform(0, 100, 4000),
        },
    )
    return database


# ----------------------------------------------------------------------
# Why a search stopped
# ----------------------------------------------------------------------
class TestStopReason:
    def _run(self, database, query, **overrides):
        config = AcquireConfig(gamma=10.0, **overrides)
        judged, reference = _judge_and_reference(
            lambda: MemoryBackend(database), query, config
        )
        assert judged.stats.stop_reason == reference.stats.stop_reason
        assert _record(judged) == _record(reference)
        return judged

    def test_answers(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, 1500)
        result = self._run(grid_db, query, explore_mode="materialized")
        assert result.satisfied
        assert result.stats.stop_reason == "answers"
        assert "stopped: answers" in result.summary()

    @pytest.mark.parametrize("mode", ["incremental", "materialized", "auto"])
    def test_overshoot(self, grid_db, mode):
        # COUNT = 1000 under one predicate, x <= 20 (~800 rows): the
        # first step, to x <= 30, overshoots target * (1 + delta) and no
        # repartition probe runs, so the next layer's top stops the
        # search; a materialized batch holds both layers.
        query = count_query("data", {"x": 20.0}, 1000)
        result = self._run(
            grid_db, query, delta=0.0, repartition_iterations=0,
            explore_mode=mode,
        )
        assert not result.satisfied
        assert result.stats.stop_reason == "overshoot"
        assert result.stats.grid_queries_examined == 2

    @pytest.mark.parametrize("mode", ["incremental", "materialized", "auto"])
    def test_threshold_wins_a_tie_with_overshoot(self, grid_db, mode):
        """The same search with probes: a repartition probe inside the
        overshooting cell answers, so the next layer's top is both past
        the answer threshold and after a whole overshooting layer. The
        threshold is checked first."""
        query = count_query("data", {"x": 20.0}, 1000)
        result = self._run(grid_db, query, explore_mode=mode)
        assert result.satisfied
        assert result.answers[0].coords is None
        assert result.stats.grid_queries_examined == 2
        assert result.stats.stop_reason == "answers"

    def test_budget(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, 3999)
        result = self._run(grid_db, query, max_grid_queries=25)
        assert result.stats.grid_queries_examined == 25
        assert result.stats.stop_reason == "budget"

    def test_exhausted(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, 10**6)
        result = self._run(grid_db, query, explore_mode="materialized")
        assert not result.satisfied
        assert result.stats.stop_reason == "exhausted"

    def test_exhausted_by_the_prune(self, grid_db):
        """An EQ search whose original query overshoots contracts; with
        no answer possible (delta 0, a target between two counts) every
        shrink path ends below the target, where the prune cuts it, and
        the search stops when nothing is left to reach."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, 301.5)
        result = self._run(
            grid_db, query, delta=0.0, repartition_iterations=0
        )
        assert result.stats.plan_reason == "contraction"
        assert result.stats.stop_reason == "exhausted"
        grid = ContractionSpace(query, 10.0).grid_size
        assert result.stats.grid_queries_examined < grid


# ----------------------------------------------------------------------
# Empty grid points and the EQ layer early stop
# ----------------------------------------------------------------------
BACKENDS = {"memory": MemoryBackend, "sqlite": SQLiteBackend}


def _max_query(bounds, target):
    """``MAX(t.v) = target`` under one UPPER predicate per bound."""
    query = count_query("t", bounds, target)
    return query.with_constraint(
        AggregateConstraint(
            AggregateSpec(get_aggregate("MAX"), col("t.v")),
            ConstraintOp.EQ,
            target,
        )
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("mode", ["incremental", "materialized", "auto"])
class TestEmptyPoints:
    """MAX over an empty query is NaN, and a NaN value never makes its
    layer overshoot: an empty point may lie under a point of the next
    layer that answers."""

    def _run(self, database, query, backend, mode):
        config = AcquireConfig(gamma=10.0, explore_mode=mode)
        judged, reference = _judge_and_reference(
            lambda: BACKENDS[backend](database), query, config
        )
        assert _record(judged) == _record(reference)
        return judged

    def test_empty_origin_does_not_stop_the_search(self, backend, mode):
        database = Database()
        database.create_table(
            "t",
            {"x": np.linspace(50, 100, 51), "v": np.linspace(1, 10, 51)},
        )
        query = _max_query({"x": 10.0}, 5.0)
        result = self._run(database, query, backend, mode)
        assert result.stats.stop_reason == "answers"
        assert result.stats.grid_queries_examined > 1
        (answer,) = result.answers
        assert answer.qscore == 62.5
        assert answer.aggregate_value == pytest.approx(4.96)

    def test_empty_point_keeps_its_layer_from_overshooting(
        self, backend, mode
    ):
        """Layer 1 holds an empty point, (1, 0), and an overshooting
        one, (0, 1); (2, 0) of layer 2 contains only the empty one and
        answers exactly."""
        database = Database()
        database.create_table(
            "t", {"x": [5.0, 18.0], "y": [12.0, 5.0], "v": [9.0, 5.0]}
        )
        query = _max_query({"x": 10.0, "y": 10.0}, 5.0)
        result = self._run(database, query, backend, mode)
        assert result.stats.stop_reason == "answers"
        assert [(a.coords, a.aggregate_value) for a in result.answers] == [
            ((2, 0), 5.0)
        ]


# ----------------------------------------------------------------------
# The array forms the judge computes errors and distances with
# ----------------------------------------------------------------------
SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
    math.nan, 3.0, 2.9999999999999996, 7.5, 1e-300,
]


@pytest.mark.parametrize(
    "error_fn",
    [RelativeError(), HingeError(), HingeError(normalized=False),
     default_error_for(ConstraintOp.LE)],
)
@pytest.mark.parametrize("expected", [0.0, 3.0, -2.5, 1e-300, 7])
def test_error_array_is_the_call_bit_for_bit(error_fn, expected):
    actual = np.array(SPECIAL)
    with np.errstate(over="ignore"):
        errors = error_array(error_fn, expected, actual)
    assert [float(e).hex() for e in errors] == [
        float(error_fn(expected, a)).hex() for a in SPECIAL
    ]


@pytest.mark.parametrize("distance", [MaxConstraintDistance()])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_combine_array_is_combine_bit_for_bit(distance, k):
    rng = np.random.default_rng(k)
    pool = np.array([0.1, 0.2, 0.3, 1e16, 1.0, 0.0, -0.0, math.inf, math.nan])
    columns = [rng.choice(pool, 400) for _ in range(k)]
    columns.append(rng.uniform(0, 1, 400))
    combined = distance.combine_array(columns)
    expected = [
        distance.combine(list(row))
        for row in zip(*(column.tolist() for column in columns))
    ]
    assert [float(e).hex() for e in combined] == [
        float(e).hex() for e in expected
    ]
