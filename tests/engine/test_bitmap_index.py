"""Tests for the section 7.4 grid bitmap index."""

import numpy as np

from repro.core.refined_space import RefinedSpace
from repro.engine.backends import first_levels
from repro.engine.bitmap_index import GridBitmapIndex
from tests.core.test_refined_space import make_query


def _space(d=2):
    return RefinedSpace(make_query(d), gamma=10.0, max_scores=[50.0] * d)


def _index(keys, space=None) -> GridBitmapIndex:
    """The bitmap of rows with these keys (``make_query``'s predicates:
    ``t.c_i <= 50``, widening by 2.5 a level at step 5), each row in the
    cell of its first admitting levels, as the memory backend builds
    it."""
    space = space or _space()
    keys = np.asarray(keys, dtype=np.float64).reshape(-1, space.d)
    levels = np.column_stack(
        [
            first_levels(
                predicate,
                keys[:, dim],
                [coord * space.step for coord in range(extent + 1)],
            )
            for dim, (predicate, extent) in enumerate(
                zip(space.dims, space.max_coords)
            )
        ]
    )
    return GridBitmapIndex(levels)


class TestGridBitmapIndex:
    def test_empty_scores(self):
        index = _index(np.empty((0, 2)))
        assert index.nonempty_cells == 0
        assert index.is_empty((0, 0))

    def test_membership(self):
        # Level c admits keys up to 50 + 2.5c: 53.5 first at level 2,
        # 56 first at level 3.
        index = _index([[50.0, 53.5], [56.0, 50.0]])
        assert not index.is_empty((0, 2))
        assert not index.is_empty((3, 0))
        assert index.is_empty((0, 0))
        assert index.is_empty((2, 2))
        assert index.nonempty_cells == 2

    def test_negative_scores_map_to_base_cell(self):
        """Keys inside the original interval (negative PScores)."""
        index = _index([[35.0, 49.5]])
        assert not index.is_empty((0, 0))

    def test_boundary_scores(self):
        # Exactly on level 1's bound: key 52.5 (score 5.0) is in cell 1.
        index = _index([[52.5, 50.0]])
        assert not index.is_empty((1, 0))
        assert index.is_empty((2, 0))

    def test_score_just_above_a_grid_line(self):
        """A key one ulp above level 1's bound is first admitted at
        level 2."""
        index = _index([[np.nextafter(52.5, np.inf), 50.0]])
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
