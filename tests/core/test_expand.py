"""Property tests for the Expand phase (paper Theorems 2 and 3)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import expand
from repro.core.expand import (
    FIRST_SHELL_POINTS,
    LInfLayerTraversal,
    LpBestFirstTraversal,
    Traversal,
    heap_scored,
    make_traversal,
)
from repro.core.refined_space import MAX_COORD_CAP, RefinedSpace
from repro.core.scoring import LInfNorm, LpNorm
from repro.exceptions import SearchError
from tests.core.test_refined_space import make_query


def _space(d, max_coord, norm=None, weights=None, step=None):
    query = make_query(d, weights=weights)
    return RefinedSpace(
        query,
        gamma=10.0,
        max_scores=[max_coord * (10.0 / d if step is None else step)] * d,
        norm=norm,
        step=step,
    )


def _contains(inner, outer):
    return all(a <= b for a, b in zip(inner, outer))


class HeapReference(Traversal):
    """The best-first heap, whatever the norm: the reference order."""

    def __init__(self, space):
        self.space = space

    def scored(self):
        return heap_scored(self.space)


def _layer_prefix(traversal, points):
    """The first layers of ``traversal`` covering at least ``points``
    grid points (all of them on a smaller grid)."""
    taken, seen = [], 0
    for layer in traversal.layers_scored():
        taken.append(layer)
        seen += len(layer)
        if seen >= points:
            break
    return taken


class TestLpBestFirst:
    def test_visits_entire_grid_once(self):
        space = _space(2, 4)
        visited = list(LpBestFirstTraversal(space))
        expected = set(itertools.product(range(5), repeat=2))
        assert len(visited) == len(expected)
        assert set(visited) == expected

    def test_starts_at_origin(self):
        space = _space(3, 2)
        assert next(iter(LpBestFirstTraversal(space))) == (0, 0, 0)

    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2), LInfNorm()])
    def test_theorem2_nondecreasing_qscore(self, norm):
        space = _space(3, 3, norm=norm)
        qscores = [
            space.qscore(coords) for coords in LpBestFirstTraversal(space)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(qscores, qscores[1:]))

    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2), LInfNorm()])
    def test_theorem3_containment_order(self, norm):
        """Every query is generated after all queries it contains."""
        space = _space(3, 3, norm=norm)
        seen: set = set()
        for coords in LpBestFirstTraversal(space):
            for dim in range(space.d):
                if coords[dim] > 0:
                    predecessor = (
                        coords[:dim] + (coords[dim] - 1,) + coords[dim + 1 :]
                    )
                    assert predecessor in seen, (
                        f"{coords} visited before contained {predecessor}"
                    )
            seen.add(coords)

    def test_weighted_norm_ordering(self):
        """Section 7.1 weights: cheaper dimensions expand first."""
        space = _space(2, 4, weights=[5.0, 1.0])
        visited = list(LpBestFirstTraversal(space))
        # The first non-origin query must expand the cheap dimension.
        assert visited[1] == (0, 1)

    def test_respects_max_coords(self):
        query = make_query(2)
        space = RefinedSpace(query, 10.0, [5.0, 15.0])  # caps 1 and 3
        visited = set(LpBestFirstTraversal(space))
        assert max(coords[0] for coords in visited) == 1
        assert max(coords[1] for coords in visited) == 3


class TestLInfLayer:
    def test_requires_linf_norm(self):
        with pytest.raises(SearchError):
            LInfLayerTraversal(_space(2, 3))

    def test_matches_best_first_per_layer(self):
        """Algorithm 2 and the best-first search agree layer by layer."""
        space = _space(3, 3, norm=LInfNorm())
        by_layers = list(LInfLayerTraversal(space))
        by_best_first = list(LpBestFirstTraversal(space))
        assert set(by_layers) == set(by_best_first)

        def layer_of(coords):
            return max(coords) if coords else 0

        layers_a = [layer_of(c) for c in by_layers]
        assert layers_a == sorted(layers_a)

    def test_theorem3_containment_order(self):
        space = _space(3, 3, norm=LInfNorm())
        seen: set = set()
        for coords in LInfLayerTraversal(space):
            for dim in range(space.d):
                if coords[dim] > 0:
                    predecessor = (
                        coords[:dim] + (coords[dim] - 1,) + coords[dim + 1 :]
                    )
                    assert predecessor in seen
            seen.add(coords)

    def test_ragged_max_coords(self):
        query = make_query(2)
        space = RefinedSpace(query, 10.0, [5.0, 25.0], norm=LInfNorm())
        visited = list(LInfLayerTraversal(space))
        assert set(visited) == set(
            itertools.product(range(2), range(6))
        )


class TestMakeTraversal:
    def test_auto_picks_by_norm(self):
        assert isinstance(
            make_traversal(_space(2, 2)), LpBestFirstTraversal
        )
        assert isinstance(
            make_traversal(_space(2, 2, norm=LInfNorm())), LInfLayerTraversal
        )

    def test_weighted_linf_uses_best_first(self):
        """Algorithm 2's layers ignore weights, so with weights 5:1 its
        QScores would go 0, 25, 5, ...: ``auto`` keeps the best-first
        order and forcing ``linf`` is refused."""
        space = _space(2, 4, norm=LInfNorm(), weights=[5.0, 1.0])
        traversal = make_traversal(space)
        assert isinstance(traversal, LpBestFirstTraversal)
        qscores = [qscore for _, qscore in traversal.scored()]
        assert qscores == sorted(qscores)
        with pytest.raises(SearchError, match="equal predicate weights"):
            make_traversal(space, "linf")

    def test_explicit_kinds(self):
        space = _space(2, 2)
        assert isinstance(make_traversal(space, "lp"), LpBestFirstTraversal)
        with pytest.raises(SearchError):
            make_traversal(space, "bogus")


class TestTraversalProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([1.0, 2.0, float("inf")]),
    )
    def test_complete_and_ordered(self, d, max_coord, p):
        norm = LInfNorm() if p == float("inf") else LpNorm(p)
        space = _space(d, max_coord, norm=norm)
        visited = list(make_traversal(space))
        assert len(visited) == (max_coord + 1) ** d
        assert len(set(visited)) == len(visited)
        qscores = [space.qscore(c) for c in visited]
        assert all(a <= b + 1e-9 for a, b in zip(qscores, qscores[1:]))


class TestScoredStreams:
    """The scored()/layers_scored() protocol: traversals hand their
    QScores to the driver so each grid point is scored exactly once."""

    @pytest.mark.parametrize("norm", [LpNorm(1), LpNorm(2), LInfNorm()])
    def test_scored_matches_iteration(self, norm):
        space = _space(3, 3, norm=norm)
        scored = list(make_traversal(space).scored())
        assert [c for c, _ in scored] == list(make_traversal(space))
        assert all(q == space.qscore(c) for c, q in scored)

    @pytest.mark.parametrize("kind", ["lp", "linf"])
    def test_layers_scored_partitions_the_stream(self, kind):
        space = _space(2, 4, norm=LInfNorm() if kind == "linf" else None)
        layers = list(make_traversal(space, kind).layers_scored())
        flat = [pair for layer in layers for pair in layer]
        assert flat == list(make_traversal(space, kind).scored())
        for layer in layers:
            assert len({round(q, 9) for _, q in layer}) == 1
        boundaries = [round(layer[0][1], 9) for layer in layers]
        assert len(set(boundaries)) == len(boundaries)

    def test_layers_drop_the_scores(self):
        space = _space(2, 3)
        traversal = make_traversal(space)
        plain = list(make_traversal(space).layers())
        scored = list(traversal.layers_scored())
        assert plain == [[c for c, _ in layer] for layer in scored]

    @pytest.mark.parametrize("kind", ["lp", "linf"])
    def test_each_point_scored_exactly_once(self, kind):
        """Traversals scoring through ``space.qscore`` call it once per
        point: the heap (``lp`` under a non-L1 norm) and Algorithm 2.
        Under the L1 norm the ``lp`` shells never call it, and their
        stream must be the heap's."""
        if kind == "lp":
            l1 = _space(2, 4)
            assert list(make_traversal(l1, kind).layers_scored()) == list(
                HeapReference(l1).layers_scored()
            )
        space = _space(2, 4, norm=LInfNorm() if kind == "linf" else LpNorm(2))
        counts: dict = {}
        original = space.qscore

        def counting_qscore(coords):
            key = tuple(coords)
            counts[key] = counts.get(key, 0) + 1
            return original(coords)

        space.qscore = counting_qscore  # type: ignore[method-assign]
        consumed = [
            pair
            for layer in make_traversal(space, kind).layers_scored()
            for pair in layer
        ]
        assert len(consumed) == space.grid_size
        assert set(counts.values()) == {1}


_WEIGHTS = [1.0, 0.5, 2.0, 5.0, 1 / 3, 0.7, 3]
#: Grid extents; None stands for an unbounded dimension, which the
#: space caps at MAX_COORD_CAP.
_EXTENTS = [0, 1, 2, 5, 13, None]


def _shell_space(weights, step, extents):
    query = make_query(len(weights), weights=list(weights))
    return RefinedSpace(
        query,
        gamma=10.0,
        max_scores=[
            float("inf") if extent is None else extent * step
            for extent in extents
        ],
        step=step,
    )


class TestL1Shells:
    """Under the L1 norm ``LpBestFirstTraversal`` enumerates numpy
    shells; they must reproduce the heap bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(
                st.lists(st.sampled_from(_WEIGHTS), min_size=d, max_size=d),
                st.lists(st.sampled_from(_EXTENTS), min_size=d, max_size=d),
            )
        ),
        st.sampled_from([1.0, 2.5, 10 / 3, 0.1, 7.5]),
    )
    def test_layers_match_heap(self, weights_extents, step):
        weights, extents = weights_extents
        space = _shell_space(weights, step, extents)
        traversal = LpBestFirstTraversal(space)
        assert traversal.shells is not None
        shells = _layer_prefix(traversal, 400)
        heap = _layer_prefix(HeapReference(space), 400)
        assert [[(c, q.hex()) for c, q in layer] for layer in shells] == [
            [(c, q.hex()) for c, q in layer] for layer in heap
        ]
        for layer in shells:
            for coords, qscore in layer:
                assert all(type(coord) is int for coord in coords)
                assert qscore.hex() == space.qscore(coords).hex()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from([1.0, 0.5, 3, 100.0, 1e4]), min_size=1, max_size=4
        ),
        st.sampled_from([1.0, 2.5, 10 / 3, 0.1]),
    )
    def test_first_shell_holds_at_most_first_shell_points(self, weights, step):
        """Sized in the smallest term step, the first shell stays small
        however skewed the weights: with d = 3 and weights (1, 1, 1e4)
        a bound sized in the geometric mean step would hold about
        62,000 points."""
        space = _shell_space(weights, step, [None] * len(weights))
        shells = LpBestFirstTraversal(space).shells
        qscores, _ = shells._points(shells._first_bound())
        assert 0 < len(qscores) <= FIRST_SHELL_POINTS

    def test_capped_dimension_at_max_coord_cap(self):
        space = _shell_space([1.0, 1 / 3], 10 / 3, [None, 0])
        assert space.max_coords == (MAX_COORD_CAP, 0)
        shells = _layer_prefix(LpBestFirstTraversal(space), 3000)
        heap = _layer_prefix(HeapReference(space), 3000)
        assert shells == heap

    def test_whole_grid_across_several_shells(self):
        """A grid far larger than the first shell is enumerated to its
        last point, in order, with every layer cut as the heap cuts it."""
        space = _shell_space([1.0, 0.7, 2.0], 10 / 3, [30, 25, 13])
        shells = list(LpBestFirstTraversal(space).layers_scored())
        assert shells == list(HeapReference(space).layers_scored())
        assert sum(map(len, shells)) == space.grid_size

    def test_layer_straddling_a_shell_bound(self, monkeypatch):
        """With step 10/3 layer 30 holds the QScores 30.0 and
        30.000000000000004: a shell bound of exactly 30.0 splits it, and
        the held-back layer must still come out whole."""
        space = _shell_space([1.0, 1.0, 1.0], 10 / 3, [5, 5, 5])
        monkeypatch.setattr(
            expand._L1Shells, "_first_bound", lambda self: 30.0
        )
        layers = list(LpBestFirstTraversal(space).layers_scored())
        assert layers == list(HeapReference(space).layers_scored())
        thirty = next(layer for layer in layers if layer[0][1] == 30.0)
        assert {q for _, q in thirty} == {30.0, 30.000000000000004}

    @pytest.mark.parametrize("norm", [LpNorm(2), LInfNorm()])
    def test_other_norms_pop_the_heap(self, norm):
        space = _space(2, 3, norm=norm)
        traversal = LpBestFirstTraversal(space)
        assert traversal.shells is None
        assert list(traversal.scored()) == list(heap_scored(space))
