"""Tests for the in-memory sub-aggregate store."""

import pytest

from repro.core.explore import SubAggregateStore
from repro.exceptions import SearchError


class TestInMemoryStore:
    def test_missing_raises(self):
        store = SubAggregateStore()
        with pytest.raises(SearchError, match="containment order"):
            store.get((0, 0))

    def test_len_and_contains(self):
        store = SubAggregateStore()
        store.put((1, 2), [(0.0,)])
        assert len(store) == 1
        assert (1, 2) in store
