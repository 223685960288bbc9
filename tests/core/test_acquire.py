"""End-to-end tests for the ACQUIRE driver (paper Algorithm 4)."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.core import expand
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.error import default_error_for
from repro.core.expand import make_traversal
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.scoring import LInfNorm, LpNorm
from repro.engine.backends import EvaluationLayer
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.exceptions import QueryModelError
from tests.conftest import count_query


@pytest.fixture(scope="module")
def grid_db() -> Database:
    """Uniform 2-D data so counts are predictable."""
    rng = np.random.default_rng(123)
    database = Database()
    database.create_table(
        "data",
        {
            "x": rng.uniform(0, 100, 4000),
            "y": rng.uniform(0, 100, 4000),
            "z": rng.uniform(0, 100, 4000),
            "v": rng.uniform(0, 10, 4000),
        },
    )
    return database


class TestBasicExpansion:
    def test_finds_answer_within_delta(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1500)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.satisfied
        best = result.best
        assert best.error <= 0.05
        assert abs(best.aggregate_value - 1500) <= 0.05 * 1500
        assert best.qscore > 0

    def test_origin_already_satisfies(self, grid_db):
        base = count_query("data", {"x": 30.0, "y": 30.0}, target=1.0)
        original = Acquire(MemoryBackend(grid_db)).run(
            base.with_constraint(
                AggregateConstraint(
                    base.constraint.spec, ConstraintOp.GE, 1.0
                )
            ),
            AcquireConfig(gamma=10, delta=0.05),
        )
        assert original.satisfied
        assert original.best.qscore == 0.0
        assert original.stats.grid_queries_examined >= 1

    def test_answers_share_minimal_layer(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1200)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.10)
        )
        assert result.satisfied
        grid_answers = [a for a in result.answers if a.coords is not None]
        layers = {round(a.qscore, 6) for a in grid_answers}
        assert len(layers) == 1  # Algorithm 4 finishes exactly one layer

    def test_monotone_count_nondecreasing_along_expansion(self, grid_db):
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=4000)
        layer = MemoryBackend(grid_db)
        prepared = layer.prepare(query, [400.0, 400.0])
        counts = [
            layer.execute_box(prepared, (s, s))[0] for s in (0, 10, 20, 40)
        ]
        assert counts == sorted(counts)


class TestOptimality:
    def test_within_gamma_of_bruteforce_optimum(self, grid_db):
        """Definition 1(b): QScore within gamma of the optimal grid
        refinement, verified against exhaustive search."""
        gamma, delta = 10.0, 0.05
        target = 900.0
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=target)
        layer = MemoryBackend(grid_db)
        result = Acquire(layer).run(query, AcquireConfig(gamma=gamma,
                                                         delta=delta))
        assert result.satisfied

        # Exhaustive scan of a fine grid for the true optimum.
        probe_layer = MemoryBackend(grid_db)
        prepared = probe_layer.prepare(query, [400.0, 400.0])
        best = math.inf
        for sx, sy in itertools.product(np.arange(0, 80, 1.0), repeat=2):
            count = probe_layer.execute_box(prepared, (sx, sy))[0]
            if abs(count - target) <= delta * target:
                best = min(best, sx + sy)
        assert best < math.inf
        assert result.best.qscore <= best + gamma + 1e-6


class TestRepartitioning:
    def test_overshoot_triggers_repartition(self, grid_db):
        """A coarse grid overshoots; bisection inside the cell recovers
        an in-threshold answer (Algorithm 4's Repartition)."""
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=200)
        config = AcquireConfig(gamma=160.0, delta=0.01,
                               repartition_iterations=16)
        result = Acquire(MemoryBackend(grid_db)).run(query, config)
        assert result.stats.repartition_probes > 0
        assert result.satisfied
        off_grid = [a for a in result.answers if a.coords is None]
        assert off_grid, "expected an answer produced by repartitioning"

    def test_repartition_disabled(self, grid_db):
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=200)
        config = AcquireConfig(gamma=160.0, delta=0.01,
                               repartition_iterations=0)
        result = Acquire(MemoryBackend(grid_db)).run(query, config)
        assert result.stats.repartition_probes == 0
        assert result.stats.repartitioned_cells == 0

    def test_sqlite_reads_each_repartitioned_cell_once(self, grid_db):
        """Beyond one domain query per dimension, a SQLite search makes
        one box query per repartitioned cell, where a layer that keeps
        the base-class reader makes one per probe; answers, closest
        and the original value are the same."""
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=200)
        config = AcquireConfig(gamma=160.0, delta=0.01,
                               repartition_iterations=16)
        result = Acquire(SQLiteBackend(grid_db)).run(query, config)
        per_probe = Acquire(_BoxPerProbeSQLite(grid_db)).run(query, config)
        stats = result.stats
        assert stats.repartitioned_cells >= 1
        assert stats.repartition_probes == 16 * stats.repartitioned_cells
        domain = len(query.refinable_predicates)
        assert stats.execution.box_queries == (
            domain + stats.repartitioned_cells
        )
        assert per_probe.stats.execution.box_queries == (
            domain + stats.repartition_probes
        )
        assert _outcome(result) == _outcome(per_probe)
        assert (
            f"{stats.repartition_probes} repartition probes over "
            f"{stats.repartitioned_cells} cells"
        ) in result.summary()


class _BoxPerProbeSQLite(SQLiteBackend):
    """SQLite layer that keeps the base-class reader: one
    ``execute_box`` per probe."""

    box_reader = EvaluationLayer.box_reader


def _outcome(result) -> tuple:
    """Everything a search answers, without its counters."""

    def refined(query):
        return (
            query.pscores, query.qscore, query.aggregate_value,
            query.error, query.coords,
        )

    return (
        [refined(answer) for answer in result.answers],
        refined(result.closest),
        result.original_value,
        result.stats.grid_queries_examined,
        result.stats.repartition_probes,
    )


class TestClosestFallback:
    def test_unattainable_target_returns_closest(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=100_000)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=20, delta=0.01)
        )
        assert not result.satisfied
        assert result.best is not None
        assert result.best.aggregate_value <= 4000
        # Closest query is the most expanded one (monotone COUNT).
        assert result.best.error > 0.01

    def test_unattainably_tight_delta_stops_early(self, grid_db):
        """The all-overshoot layer rule keeps the search finite."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1500.0001)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=1e-9)
        )
        assert not result.satisfied
        assert result.stats.grid_queries_examined < 5000


@pytest.fixture(scope="module")
def mirrored_db() -> Database:
    """Rows mirrored across x = y, so grid points (i, j) and (j, i)
    share a count and a QScore: ties the closest query must break."""
    rng = np.random.default_rng(5)
    a = np.floor(rng.uniform(0, 100, 150))
    b = np.floor(rng.uniform(0, 100, 150))
    database = Database()
    database.create_table(
        "data", {"x": np.concatenate([a, b]), "y": np.concatenate([b, a])}
    )
    return database


def _brute_force_closest(database, query, config, examined):
    """The closest query of an unsatisfiable search, by brute force.

    Walks the search's own traversal over its first ``examined`` grid
    points, measuring each with a direct box query, and after each
    overshooting EQ point replays the driver's repartition bisection.
    Returns every candidate as ``(error, qscore, coords, pscores,
    actual)`` in examination order; the closest is the first one with
    the minimal ``(error, qscore)``.
    """
    layer = MemoryBackend(database)
    caps = [config.dim_cap_default] * len(query.refinable_predicates)
    prepared = layer.prepare(query, caps)
    useful = layer.useful_max_scores(prepared)
    space = RefinedSpace(
        query,
        config.gamma,
        [min(cap, score) for cap, score in zip(caps, useful)],
        config.norm,
        config.step,
    )
    aggregate = query.constraint.spec.aggregate
    target = query.constraint.target
    error_fn = default_error_for(query.constraint.op)

    def measure(scores):
        actual = aggregate.finalize(layer.execute_box(prepared, scores))
        return error_fn(target, actual), actual

    candidates = []
    traversal = make_traversal(space, config.traversal)
    for coords in itertools.islice(traversal, examined):
        scores = space.scores(coords)
        error, actual = measure(scores)
        candidates.append((error, space.qscore(coords), coords, scores, actual))
        overshoots = (
            query.constraint.op is ConstraintOp.EQ
            and error > config.delta
            and actual > target
        )
        if not overshoots or config.repartition_iterations == 0:
            continue
        low_scores = tuple(max(score - space.step, 0.0) for score in scores)
        low, high = 0.0, 1.0
        for _ in range(config.repartition_iterations):
            middle = (low + high) / 2.0
            probe = tuple(
                lo + middle * (hi - lo)
                for lo, hi in zip(low_scores, scores)
            )
            error, actual = measure(probe)
            candidates.append(
                (error, space.qscore_of_scores(probe), None, probe, actual)
            )
            if actual > target:
                high = middle
            else:
                low = middle
    return candidates


class TestClosestTieBreak:
    """``result.closest`` of an unsatisfiable ACQ is the *first*
    examined query, in traversal order, with the minimal
    ``(error, qscore)`` — on every Explore engine."""

    @pytest.mark.parametrize("mode", ["incremental", "materialized"])
    @pytest.mark.parametrize("target", [60.5, 90.5, 120.5])
    def test_first_minimal_grid_point_wins(self, mirrored_db, mode, target):
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=target)
        config = AcquireConfig(
            gamma=10, delta=1e-9, explore_mode=mode, repartition_iterations=0
        )
        result = Acquire(MemoryBackend(mirrored_db)).run(query, config)
        assert not result.satisfied
        candidates = _brute_force_closest(
            mirrored_db, query, config, result.stats.grid_queries_examined
        )
        best = min(candidate[:2] for candidate in candidates)
        tied = [c for c in candidates if c[:2] == best]
        # The mirrored data makes (i, j) and (j, i) tie, so this pins
        # the tie-break, not just the minimum.
        assert len(tied) >= 2
        error, qscore, coords, pscores, actual = tied[0]
        closest = result.closest
        assert closest.coords == coords
        assert (closest.error, closest.qscore) == (error, qscore)
        assert closest.pscores == pscores
        assert closest.aggregate_value == actual

    @pytest.mark.parametrize("mode", ["incremental", "materialized"])
    @pytest.mark.parametrize("target", [60.5, 90.5, 120.5])
    def test_repartition_candidate_wins_on_eq_overshoot(
        self, mirrored_db, mode, target
    ):
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=target)
        config = AcquireConfig(gamma=10, delta=1e-9, explore_mode=mode)
        result = Acquire(MemoryBackend(mirrored_db)).run(query, config)
        assert not result.satisfied
        assert result.stats.repartition_probes > 0
        candidates = _brute_force_closest(
            mirrored_db, query, config, result.stats.grid_queries_examined
        )
        probes = sum(1 for c in candidates if c[2] is None)
        assert probes == result.stats.repartition_probes
        best = min(candidate[:2] for candidate in candidates)
        error, qscore, coords, pscores, actual = next(
            c for c in candidates if c[:2] == best
        )
        assert coords is None  # an off-grid bisection probe won
        closest = result.closest
        assert closest.coords is None
        assert (closest.error, closest.qscore) == (error, qscore)
        assert closest.pscores == pscores
        assert closest.aggregate_value == actual


    @pytest.mark.parametrize("mode", ["incremental", "materialized"])
    def test_satisfied_closest_is_an_answer_object(self, mirrored_db, mode):
        """When an answer exists the closest query is one of them, and
        the very same object: no second RefinedQuery is built."""
        query = count_query("data", {"x": 20.0, "y": 20.0}, target=90)
        config = AcquireConfig(gamma=10, delta=0.02, explore_mode=mode)
        result = Acquire(MemoryBackend(mirrored_db)).run(query, config)
        assert result.satisfied
        assert any(result.closest is answer for answer in result.answers)


class TestNormsAndWeights:
    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2), LInfNorm()])
    def test_all_norms_work(self, grid_db, norm):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1300)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05, norm=norm)
        )
        assert result.satisfied

    def test_weights_steer_refinement(self, grid_db):
        """Section 7.1: a heavily weighted predicate refines less."""
        def weighted_query(wx):
            predicates = [
                SelectPredicate(
                    name="px",
                    expr=col("data.x"),
                    interval=Interval(0, 30),
                    direction=Direction.UPPER,
                    denominator=100.0,
                    weight=wx,
                ),
                SelectPredicate(
                    name="py",
                    expr=col("data.y"),
                    interval=Interval(0, 30),
                    direction=Direction.UPPER,
                    denominator=100.0,
                ),
            ]
            constraint = AggregateConstraint(
                AggregateSpec(get_aggregate("COUNT")), ConstraintOp.EQ, 1300
            )
            return Query.build("q", ("data",), predicates, constraint)

        balanced = Acquire(MemoryBackend(grid_db)).run(
            weighted_query(1.0), AcquireConfig(gamma=10, delta=0.05)
        )
        skewed = Acquire(MemoryBackend(grid_db)).run(
            weighted_query(8.0), AcquireConfig(gamma=10, delta=0.05)
        )
        assert balanced.satisfied and skewed.satisfied
        # With x expensive, the x-refinement must not exceed the
        # balanced run's.
        assert skewed.best.pscores[0] <= balanced.best.pscores[0] + 1e-9


def _weighted_count_query(bounds, weights, target):
    """COUNT = target over ``data`` with one weighted UPPER predicate
    per (column, bound)."""
    query = count_query("data", bounds, target=target)
    return dataclasses.replace(
        query,
        predicates=tuple(
            predicate.with_weight(weight)
            for predicate, weight in zip(query.predicates, weights)
        ),
    )


def _search_space(layer, query, config):
    """The driver's refined space for ``query`` and its prepared query."""
    caps = [config.dim_cap_default] * len(query.refinable_predicates)
    prepared = layer.prepare(query, caps)
    useful = layer.useful_max_scores(prepared)
    space = RefinedSpace(
        query,
        config.gamma,
        [min(cap, score) for cap, score in zip(caps, useful)],
        config.norm,
        config.step,
    )
    return space, prepared


class TestWeightedLInf:
    """Algorithm 2's layers follow the largest coordinate and ignore
    weights: with weights 5:1 its QScores run 0, 25, 5, ... and the
    first answer found need not be a minimal one."""

    @pytest.fixture(scope="class")
    def layer(self):
        rng = np.random.default_rng(123)
        database = Database()
        database.create_table(
            "data",
            {"x": rng.uniform(0, 100, 2000), "y": rng.uniform(0, 100, 2000)},
        )
        return MemoryBackend(database)

    def test_answers_match_best_first(self, layer):
        def answers(target, traversal):
            query = _weighted_count_query(
                {"x": 30.0, "y": 30.0}, (5.0, 1.0), target
            )
            config = AcquireConfig(
                gamma=10, delta=0.05, norm=LInfNorm(), traversal=traversal
            )
            result = Acquire(layer).run(query, config)
            return [(a.coords, a.qscore, a.error) for a in result.answers]

        for target in range(300, 1351, 50):
            assert answers(target, "auto") == answers(target, "lp"), target

    def test_ge_answers_are_minimal(self, layer):
        """COUNT >= target: the answers sit at the smallest QScore of
        any grid point within delta, found here by brute force."""
        config = AcquireConfig(
            gamma=10, delta=0.05, norm=LInfNorm(), repartition_iterations=0
        )
        base = _weighted_count_query({"x": 30.0, "y": 30.0}, (5.0, 1.0), 0)
        space, prepared = _search_space(layer, base, config)
        counts = {
            coords: layer.execute_box(prepared, space.scores(coords))[0]
            for coords in itertools.product(
                *(range(extent + 1) for extent in space.max_coords)
            )
        }
        error_fn = default_error_for(ConstraintOp.GE)
        for target in range(300, 1351, 50):
            query = base.with_constraint(
                AggregateConstraint(
                    base.constraint.spec, ConstraintOp.GE, target
                )
            )
            result = Acquire(layer).run(query, config)
            minimal = min(
                space.qscore(coords)
                for coords, count in counts.items()
                if error_fn(target, count) <= config.delta
            )
            assert result.satisfied
            assert {a.qscore for a in result.answers} == {minimal}, target


class TestWeightedOvershoot:
    """The EQ overshoot early stop assumes every query of a layer
    contains one of the layer before. With weights 5:1 that fails under
    L1 and L2 alike: layer 20 = {(0, 4)} overshoots COUNT = 300 although
    (1, 2), in a later layer, counts 287. Every answer must sit at the
    smallest QScore of any grid point within delta, found here by brute
    force."""

    @pytest.fixture(scope="class")
    def layer(self):
        rng = np.random.default_rng(123)
        database = Database()
        database.create_table(
            "data",
            {"x": rng.uniform(0, 100, 2000), "y": rng.uniform(0, 100, 2000)},
        )
        return MemoryBackend(database)

    @pytest.mark.parametrize("weights", [(5.0, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2)], ids=["L1", "L2"])
    def test_eq_answers_are_minimal(self, layer, norm, weights):
        config = AcquireConfig(
            gamma=10,
            delta=0.05,
            norm=norm,
            repartition_iterations=0,
            explore_mode="incremental",
        )
        base = _weighted_count_query({"x": 30.0, "y": 30.0}, weights, 1)
        space, prepared = _search_space(layer, base, config)
        counts = {
            coords: layer.execute_box(prepared, space.scores(coords))[0]
            for coords in itertools.product(
                *(range(extent + 1) for extent in space.max_coords)
            )
        }
        error_fn = default_error_for(ConstraintOp.EQ)
        for target in range(200, 1401, 50):
            query = base.with_constraint(
                AggregateConstraint(
                    base.constraint.spec, ConstraintOp.EQ, target
                )
            )
            result = Acquire(layer).run(query, config)
            within = {
                coords: space.qscore(coords)
                for coords, count in counts.items()
                if error_fn(target, count) <= config.delta
            }
            if not within:
                assert not result.satisfied, target
                continue
            minimal = min(within.values())
            assert result.satisfied, target
            assert {a.qscore for a in result.answers} == {minimal}, target
            assert {a.coords for a in result.answers} == {
                coords
                for coords, qscore in within.items()
                if qscore == minimal
            }, target

    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2)], ids=["L1", "L2"])
    def test_reported_misses(self, layer, norm):
        """The two searches that stopped short before the fix."""
        target, point, qscore = {
            "L1": (300, (1, 2), 35.0),
            "L2": (200, (1, 0), math.sqrt(125.0)),
        }["L1" if norm.p == 1 else "L2"]
        query = _weighted_count_query(
            {"x": 30.0, "y": 30.0}, (5.0, 1.0), target
        )
        config = AcquireConfig(
            gamma=10, delta=0.05, norm=norm, repartition_iterations=0
        )
        result = Acquire(layer).run(query, config)
        assert result.satisfied
        assert [a.coords for a in result.answers] == [point]
        assert result.answers[0].qscore == pytest.approx(qscore)


_ENGINES = {
    "incremental": {"explore_mode": "incremental"},
    "materialized": {"explore_mode": "materialized"},
}


def _search_record(result):
    """Everything a search reports that must not depend on how the
    traversal produced its order: answers, closest and every count."""

    def refined(answer):
        return (
            answer.coords,
            answer.pscores,
            answer.qscore.hex(),
            answer.error,
            answer.aggregate_value,
        )

    def counts(stats):
        return {
            field.name: getattr(stats, field.name)
            for field in dataclasses.fields(stats)
            if type(getattr(stats, field.name)) is int
        }

    return (
        [refined(answer) for answer in result.answers],
        refined(result.closest),
        counts(result.stats),
        counts(result.stats.execution),
    )


class TestShellsDriveLikeTheHeap:
    """The L1 shells stand in for the best-first heap without changing
    a search: same answers, closest and counts on every engine."""

    @pytest.mark.parametrize("engine", sorted(_ENGINES))
    @pytest.mark.parametrize("max_grid_queries", [500_000, 1410])
    def test_identical_search(self, grid_db, monkeypatch, engine,
                              max_grid_queries):
        # d = 3 makes the step 10/3, whose multiples sum to QScores a
        # few ulps apart within one rounded layer. The search examines
        # 1,426 points, past the first shell, and its first answer is
        # the 1,398th; the budget of 1,410 cuts it between answers.
        query = _weighted_count_query(
            {"x": 30.0, "y": 30.0, "z": 30.0}, (1.0, 0.7, 2.0), 700
        )
        config = AcquireConfig(
            gamma=10,
            delta=0.05,
            top_k=3,
            max_grid_queries=max_grid_queries,
            **_ENGINES[engine],
        )
        shells = Acquire(MemoryBackend(grid_db)).run(query, config)
        monkeypatch.setattr(expand._L1Shells, "for_space", lambda space: None)
        heap = Acquire(MemoryBackend(grid_db)).run(query, config)
        assert _search_record(shells) == _search_record(heap)
        examined = shells.stats.grid_queries_examined
        assert examined == min(1426, max_grid_queries)
        assert len(shells.answers) == (3 if examined == 1426 else 1)


class TestAggregates:
    def test_sum_ge(self, grid_db):
        predicates = [
            SelectPredicate(
                name="px",
                expr=col("data.x"),
                interval=Interval(0, 30),
                direction=Direction.UPPER,
                denominator=100.0,
            )
        ]
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("SUM"), col("data.v")),
            ConstraintOp.GE,
            9000.0,
        )
        query = Query.build("qsum", ("data",), predicates, constraint)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.02)
        )
        assert result.satisfied
        assert result.best.aggregate_value >= 9000.0 * 0.98

    def test_max_ge(self, grid_db):
        predicates = [
            SelectPredicate(
                name="px",
                expr=col("data.x"),
                interval=Interval(0, 30),
                direction=Direction.UPPER,
                denominator=100.0,
            )
        ]
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("MAX"), col("data.x")),
            ConstraintOp.GE,
            60.0,
        )
        query = Query.build("qmax", ("data",), predicates, constraint)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.01)
        )
        assert result.satisfied
        assert result.best.aggregate_value >= 60.0 * 0.99

    def test_avg_equality(self, grid_db):
        """AVG via its (SUM, COUNT) decomposition (section 2.6)."""
        predicates = [
            SelectPredicate(
                name="px",
                expr=col("data.x"),
                interval=Interval(0, 30),
                direction=Direction.UPPER,
                denominator=100.0,
            )
        ]
        constraint = AggregateConstraint(
            AggregateSpec(get_aggregate("AVG"), col("data.x")),
            ConstraintOp.EQ,
            25.0,
        )
        query = Query.build("qavg", ("data",), predicates, constraint)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        assert result.best is not None
        assert result.best.error <= 0.05


class TestConfigValidation:
    def test_invalid_config(self):
        with pytest.raises(QueryModelError):
            AcquireConfig(gamma=0)
        with pytest.raises(QueryModelError):
            AcquireConfig(delta=-1)
        with pytest.raises(QueryModelError):
            AcquireConfig(repartition_iterations=-1)


class TestResultShape:
    def test_stats_and_summary(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1300)
        result = Acquire(MemoryBackend(grid_db)).run(
            query,
            AcquireConfig(gamma=10, delta=0.05, explore_mode="incremental"),
        )
        stats = result.stats
        assert stats.grid_queries_examined > 0
        assert stats.cells_executed > 0
        assert stats.elapsed_s > 0
        assert stats.execution.queries_executed >= stats.cells_executed
        text = result.summary()
        assert "answers" in text and "QScore" in text
        assert "incremental explore" in text

    def test_shell_stats_and_summary(self, grid_db):
        """The default ``auto`` search reads shells: one grid pass and
        one round trip each, its cells counted once, and the summary
        names the shell passes."""
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1300)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        stats = result.stats
        execution = stats.execution
        assert (stats.explore_mode, stats.plan_reason) == ("shells", "auto")
        assert stats.grid_queries_examined > 0
        assert execution.cell_queries == 0
        assert execution.grid_materializations >= 1
        assert execution.queries_executed == (
            execution.grid_materializations + execution.box_queries
        )
        assert stats.cells_executed == execution.grid_cells
        assert stats.cells_executed >= stats.grid_queries_examined
        passes = execution.grid_materializations
        assert f"shells explore, {passes} shell passes" in result.summary()

    def test_refined_query_describe_sql(self, grid_db):
        query = count_query("data", {"x": 30.0, "y": 30.0}, target=1300)
        result = Acquire(MemoryBackend(grid_db)).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        rendered = result.best.describe()
        assert "SELECT * FROM data" in rendered
        assert "data.x" in rendered
