"""Hypothesis property tests for the contraction extension (7.2)."""

import itertools
import math
import operator

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.contraction import ContractionSpace
from repro.core.error import default_error_for
from repro.core.interval import Interval
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.scoring import LInfNorm, LpNorm
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from tests.conftest import count_query


def _database(seed: int, n: int) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "data",
        {"x": rng.uniform(0, 100, n), "y": rng.uniform(0, 100, n)},
    )
    return database


class TestContractionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.8),
    )
    def test_le_answers_meet_cap_and_only_shrink(self, seed, target_frac):
        database = _database(seed, 800)
        layer = MemoryBackend(database)
        prepared_probe = MemoryBackend(database)
        query = count_query("data", {"x": 80.0, "y": 80.0}, target=1)
        original = prepared_probe.execute_box(
            prepared_probe.prepare(query, [0.0, 0.0]), (0.0, 0.0)
        )[0]
        target = max(original * target_frac, 1.0)
        query = count_query(
            "data", {"x": 80.0, "y": 80.0}, target=target,
            op=ConstraintOp.LE,
        )
        result = Acquire(layer).run(
            query, AcquireConfig(gamma=10, delta=0.05)
        )
        best = result.best
        assert best is not None
        if result.satisfied:
            assert best.aggregate_value <= target * 1.05 + 1e-9
        # Contraction never expands: every interval inside the original.
        for interval, predicate in zip(
            best.intervals, query.refinable_predicates
        ):
            assert interval.lo >= predicate.interval.lo - 1e-9
            assert interval.hi <= predicate.interval.hi + 1e-9
        # All PScores are contraction-signed.
        assert all(score <= 1e-9 for score in best.pscores)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_contraction_monotone_in_target(self, seed):
        """A smaller cap never needs less shrinkage."""
        database = _database(seed, 800)
        qscores = []
        for fraction in (0.7, 0.4, 0.2):
            query = count_query("data", {"x": 80.0, "y": 80.0}, target=1)
            probe = MemoryBackend(database)
            original = probe.execute_box(
                probe.prepare(query, [0.0, 0.0]), (0.0, 0.0)
            )[0]
            capped = count_query(
                "data",
                {"x": 80.0, "y": 80.0},
                target=max(original * fraction, 1.0),
                op=ConstraintOp.LE,
            )
            result = Acquire(MemoryBackend(database)).run(
                capped, AcquireConfig(gamma=10, delta=0.05)
            )
            assert result.satisfied
            qscores.append(result.best.qscore)
        assert qscores[0] <= qscores[1] + 1e-9
        assert qscores[1] <= qscores[2] + 1e-9


class _RecordingBackend(MemoryBackend):
    """Memory layer that records the scores of every box query, the
    number of readers it opens and every probe its readers answer,
    beside the reader's outer box."""

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self.boxes: list[tuple[float, ...]] = []
        self.readers = 0
        self.probes: list[tuple[tuple[float, ...], tuple[float, ...]]] = []

    def execute_box(self, prepared, scores):
        self.boxes.append(tuple(scores))
        return super().execute_box(prepared, scores)

    def box_reader(self, prepared, outer):
        self.readers += 1
        read = super().box_reader(prepared, outer)

        def probe(scores):
            self.probes.append((tuple(scores), tuple(outer)))
            return read(scores)

        return probe


@st.composite
def _searches(draw):
    """A random memory table and a contraction search over it."""
    d = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=30, max_value=150))
    columns = {f"c{i}": np.floor(rng.uniform(0, 100, n)) for i in range(d)}
    columns["v"] = np.floor(rng.uniform(1, 50, n))
    database = Database()
    database.create_table("data", columns)
    weights = draw(
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=d, max_size=d)
    )
    predicates = [
        SelectPredicate(
            name=f"c{i}_le",
            expr=col(f"data.c{i}"),
            interval=Interval(0, draw(st.sampled_from([40.0, 60.0, 85.0]))),
            direction=Direction.UPPER,
            denominator=100.0,
            weight=weights[i],
        )
        for i in range(d)
    ]
    name = draw(st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]))
    aggregate = get_aggregate(name)
    spec = AggregateSpec(aggregate, None if name == "COUNT" else col("data.v"))
    op = draw(st.sampled_from([ConstraintOp.LE, ConstraintOp.LT, ConstraintOp.EQ]))
    # The driver contracts an ``=`` only when a monotone aggregate
    # overshoots; the other aggregates take the other two operators.
    assume(op is not ConstraintOp.EQ or aggregate.monotone_expanding)
    probe = Query.build(
        "probe", ("data",), predicates,
        AggregateConstraint(spec, ConstraintOp.LE, 1.0),
    )
    layer = MemoryBackend(database)
    original = aggregate.finalize(
        layer.execute_box(layer.prepare(probe, [0.0] * d), (0.0,) * d)
    )
    assume(original > 0)
    target = original * draw(st.sampled_from([0.15, 0.4, 0.7, 0.9]))
    query = Query.build(
        "shrink", ("data",), predicates, AggregateConstraint(spec, op, target)
    )
    config = AcquireConfig(
        gamma=draw(st.sampled_from([15.0, 25.0, 40.0])) * d / 2,
        norm=draw(st.sampled_from([LpNorm(1), LpNorm(2), LInfNorm()])),
        top_k=draw(st.sampled_from([1, 3])),
        repartition_iterations=draw(st.sampled_from([0, 8])),
    )
    return database, query, config


def _expected_reads(layer, query, config):
    """The grid points the search examines, by brute force: every grid
    point in best-first key order, skipping those the section 7.2 prune
    leaves unreachable, until the answer layers are complete. Answers
    and repartition hits come from direct box queries."""
    space = ContractionSpace(query, config.gamma, config.norm, config.step)
    constraint = query.constraint
    aggregate = constraint.spec.aggregate
    target, error_fn = constraint.target, default_error_for(constraint.op)
    prepared = layer.prepare(query, [0.0] * space.d)

    def value(scores):
        return aggregate.finalize(layer.execute_box(prepared, scores))

    def below(actual):
        return aggregate.monotone_expanding and actual < target

    def repartition_hits(scores):
        inner = tuple(min(score + space.step, 0.0) for score in scores)
        if inner == scores:
            return False
        hit, low, high = False, 0.0, 1.0
        for _ in range(config.repartition_iterations):
            mid = (low + high) / 2.0
            actual = value(
                tuple(a + mid * (b - a) for a, b in zip(inner, scores))
            )
            hit = hit or error_fn(target, actual) <= config.delta
            if math.isnan(actual) or below(actual):
                high = mid
            else:
                low = mid
        return hit

    prune = config.top_k == 1 and aggregate.monotone_expanding
    grid = itertools.product(*(range(c + 1) for c in space.max_coords))
    order = sorted(grid, key=lambda c: (space.qscore(c), sum(c), c))
    reached, examined, layers = {space.origin}, [], []
    for coords in order:
        qscore = space.qscore(coords)
        if len(layers) >= config.top_k and qscore > layers[config.top_k - 1] + 1e-9:
            break
        if prune and coords not in reached:
            continue
        examined.append(coords)
        actual = value(space.scores(coords))
        if error_fn(target, actual) <= config.delta:
            layers.append(qscore)
        elif (
            constraint.op is ConstraintOp.EQ
            and below(actual)
            and repartition_hits(space.scores(coords))
        ):
            layers.append(qscore)
        if prune and below(actual):
            continue
        for dim in range(space.d):
            if coords[dim] < space.max_coords[dim]:
                reached.add(coords[:dim] + (coords[dim] + 1,) + coords[dim + 1:])
    return space, examined


class TestPruneAndReadParity:
    @settings(max_examples=60, deadline=None)
    @given(_searches())
    def test_examined_points_are_the_reachable_ones_in_key_order(
        self, search
    ):
        database, query, config = search
        layer = _RecordingBackend(database)
        result = Acquire(layer).run(query, config)
        assert result.stats.explore_mode == "box"

        space, expected = _expected_reads(MemoryBackend(database), query, config)
        grid_reads = []
        for scores in layer.boxes:
            coords = tuple(int(round(-score / space.step)) for score in scores)
            if space.scores(coords) == scores:
                grid_reads.append(coords)
        assert grid_reads == expected
        assert grid_reads == sorted(
            grid_reads, key=lambda c: (space.qscore(c), sum(c), c)
        )
        stats = result.stats
        assert stats.grid_queries_examined == len(grid_reads)
        assert len(layer.boxes) == (
            stats.grid_queries_examined + stats.repartition_probes
        )
        assert len(layer.boxes) == stats.execution.box_queries
        # One reader per repartitioned cell answers all its probes, and
        # every probe lies inside the reader's outer box.
        assert stats.repartitioned_cells == layer.readers
        assert stats.repartition_probes == len(layer.probes)
        assert stats.repartition_probes == (
            config.repartition_iterations * layer.readers
        )
        for scores, outer in layer.probes:
            assert all(map(operator.le, scores, outer)), (scores, outer)
