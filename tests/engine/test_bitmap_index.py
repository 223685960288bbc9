"""Tests for the section 7.4 grid bitmap index."""

import numpy as np
import pytest

from repro.core.refined_space import RefinedSpace
from repro.engine.bitmap_index import GridBitmapIndex
from repro.exceptions import EngineError
from tests.core.test_refined_space import make_query


def _space(d=2):
    return RefinedSpace(make_query(d), gamma=10.0, max_scores=[50.0] * d)


class TestGridBitmapIndex:
    def test_empty_scores(self):
        index = GridBitmapIndex.from_scores(np.empty((0, 2)), _space())
        assert index.nonempty_cells == 0
        assert index.is_empty((0, 0))

    def test_membership(self):
        space = _space()
        # step = 5: scores 0 -> cell 0; 7 -> cell 2; 12 -> cell 3.
        scores = np.array([[0.0, 7.0], [12.0, 0.0]])
        index = GridBitmapIndex.from_scores(scores, space)
        assert not index.is_empty((0, 2))
        assert not index.is_empty((3, 0))
        assert index.is_empty((0, 0))
        assert index.is_empty((2, 2))
        assert index.nonempty_cells == 2

    def test_negative_scores_map_to_base_cell(self):
        space = _space()
        scores = np.array([[-30.0, -1.0]])
        index = GridBitmapIndex.from_scores(scores, space)
        assert not index.is_empty((0, 0))

    def test_boundary_scores(self):
        space = _space()
        # Exactly on a grid line: score 5.0 belongs to cell 1 (annulus
        # (0, 5]), matching the memory backend's bucketing.
        index = GridBitmapIndex.from_scores(np.array([[5.0, 0.0]]), space)
        assert not index.is_empty((1, 0))
        assert index.is_empty((2, 0))

    def test_score_just_above_a_grid_line(self):
        """A score one ulp above a grid line belongs to the next cell,
        where the cell predicate ``(c-1)*step < s <= c*step`` puts it."""
        above = np.nextafter(5.0, np.inf)
        index = GridBitmapIndex.from_scores(np.array([[above, 0.0]]), _space())
        assert not index.is_empty((2, 0))
        assert index.is_empty((1, 0))

    def test_search_with_bitmap_answers_like_plain(self):
        """The cell of a tuple just above a grid line is not skipped: a
        bitmap search answers like the plain one."""
        from repro.core.acquire import Acquire, AcquireConfig
        from repro.engine.catalog import Database
        from repro.engine.memory_backend import MemoryBackend
        from tests.conftest import count_query

        above = np.nextafter(30.0, np.inf)
        database = Database()
        database.create_table(
            "t", {"x": np.array([5.0, 10.0, 15.0, above, 45.0])}
        )
        query = count_query("t", {"x": 20.0}, target=4)
        results = [
            Acquire(MemoryBackend(database)).run(
                query,
                AcquireConfig(
                    gamma=10.0, delta=0.0, explore_mode="incremental",
                    use_bitmap_index=bitmap,
                ),
            )
            for bitmap in (False, True)
        ]
        for result in results:
            assert result.best.qscore == 20.0
            assert result.best.aggregate_value == 4.0
        assert results[1].stats.cells_skipped >= 1

    def test_matches_memory_backend_cells(self):
        """Index emptiness must agree with actual cell execution."""
        import itertools

        from repro.engine.catalog import Database
        from repro.engine.memory_backend import MemoryBackend

        rng = np.random.default_rng(2)
        database = Database()
        database.create_table(
            "t",
            {
                "c0": rng.uniform(0, 120, 300),
                "c1": rng.uniform(0, 120, 300),
            },
        )
        query = make_query(2)
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [200.0, 200.0])
        space = RefinedSpace(query, 30.0, [140.0, 140.0])
        index = layer.build_bitmap_index(prepared, space)
        for coords in itertools.product(range(space.max_coords[0] + 1),
                                        range(space.max_coords[1] + 1)):
            count = layer.execute_cell(prepared, space, coords)[0]
            assert index.is_empty(coords) == (count == 0), coords


class TestCountingGridIndex:
    """Section 7.4's updatable variant: counts instead of bits."""

    def _index(self):
        from repro.engine.bitmap_index import CountingGridIndex

        return CountingGridIndex(step=5.0, d=2)

    def test_insert_and_count(self):
        index = self._index()
        index.insert(np.array([[0.0, 7.0], [12.0, 0.0], [0.0, 7.0]]))
        assert index.count((0, 2)) == 2
        assert index.count((3, 0)) == 1
        assert index.count((1, 1)) == 0
        assert index.nonempty_cells == 2
        assert index.total == 3

    def test_remove_updates_incrementally(self):
        index = self._index()
        index.insert(np.array([[0.0, 7.0], [0.0, 7.0]]))
        index.remove(np.array([[0.0, 7.0]]))
        assert index.count((0, 2)) == 1
        assert not index.is_empty((0, 2))
        index.remove(np.array([[0.0, 7.0]]))
        assert index.is_empty((0, 2))
        assert index.nonempty_cells == 0

    def test_score_just_above_a_grid_line(self):
        index = self._index()
        above = np.nextafter(5.0, np.inf)
        index.insert(np.array([[above, 10.0]]))
        assert index.count((2, 2)) == 1
        assert index.is_empty((1, 2))

    def test_remove_from_empty_rejected(self):
        index = self._index()
        with pytest.raises(EngineError, match="empty cell"):
            index.remove(np.array([[0.0, 0.0]]))

    def test_arity_checked(self):
        index = self._index()
        with pytest.raises(EngineError, match="arity"):
            index.insert(np.array([[1.0, 2.0, 3.0]]))

    def test_matches_bitmap_semantics(self):
        """Freshly built, it agrees with the bitmap on emptiness."""
        from repro.engine.bitmap_index import CountingGridIndex

        rng = np.random.default_rng(3)
        scores = rng.uniform(-20, 60, size=(200, 2))
        space = _space()
        bitmap = GridBitmapIndex.from_scores(scores, space)
        counting = CountingGridIndex.from_scores(scores, space)
        import itertools

        for coords in itertools.product(range(11), repeat=2):
            assert bitmap.is_empty(coords) == counting.is_empty(coords)

    def test_explorer_accepts_counting_index(self):
        """Drop-in replacement for the bitmap in the Explore phase."""
        from repro.core.expand import LpBestFirstTraversal
        from repro.core.explore import Explorer
        from repro.engine.bitmap_index import CountingGridIndex
        from repro.engine.catalog import Database
        from repro.engine.memory_backend import MemoryBackend

        rng = np.random.default_rng(4)
        database = Database()
        database.create_table(
            "t",
            {"c0": rng.uniform(0, 120, 200), "c1": rng.uniform(0, 120, 200)},
        )
        query = make_query(2)
        layer = MemoryBackend(database)
        prepared = layer.prepare(query, [200.0, 200.0])
        space = RefinedSpace(query, 30.0, [140.0, 140.0])
        index = CountingGridIndex.from_scores(
            prepared.candidate.scores, space
        )
        plain = Explorer(layer, prepared, space,
                         query.constraint.spec.aggregate)
        indexed = Explorer(
            layer, prepared, space, query.constraint.spec.aggregate,
            bitmap_index=index,
        )
        for coords in LpBestFirstTraversal(space):
            assert indexed.compute_aggregate(
                coords
            ) == plain.compute_aggregate(coords)
