"""Grid tensor cache suite: entries, keys, single-flight, faults.

Proves the cache contracts of ``docs/EXPLORE_MODES.md``:

* :class:`GridTensorCache` refuses a tensor over its whole budget as a
  counted no-op, caches and serves the object tensors of user-defined
  aggregates, and keys a grid's block tensor by its layer, the whole
  grid's box and the kind ``"blocks"``;
* ``lookup_or_lead`` single-flights a cache miss: N threads missing one
  key pay one backend pass, and a leader whose pass raises wakes the
  reader parked on it, which leads in its place;
* a backend raising mid-pass on any Explore engine propagates, leaves
  no flight behind, and a retry over the same cache answers exactly
  like a clean run;
* the ``auto`` planner runs the whole-grid read (reason
  ``grid-cache``) whenever a grid cache is configured and the grid is
  under both caps, so a warm block tensor is read with no backend pass
  and a cold one is written; over the caps it reads shells.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.grid_cache import GridTensorCache, layer_cache_token
from repro.core.grid_explore import GridExplorer
from repro.core.interval import Interval
from repro.core.plan import choose_explore_mode
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.exceptions import EngineError
from tests.conftest import FailingBackend, answer_key, count_query


def _database(seed: int, n: int) -> Database:
    """Random table; dimension and value columns are exact binary
    fractions (multiples of 0.25)."""
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(
        "t",
        {
            "x": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "y": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "z": np.floor(rng.uniform(0, 400, n)) / 4.0,
            "v": np.floor(rng.uniform(-200, 200, n)) / 4.0,
        },
    )
    return database


def _query(
    aggregate="COUNT",
    bounds=(30.0, 30.0),
    columns=("x", "y"),
    target=100.0,
    op=ConstraintOp.EQ,
) -> Query:
    predicates = [
        SelectPredicate(
            name=f"p{i}",
            expr=col("t." + column),
            interval=Interval(0.0, bound),
            direction=Direction.UPPER,
            denominator=100.0,
        )
        for i, (column, bound) in enumerate(zip(columns, bounds))
    ]
    agg = (
        get_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
    )
    attr = col("t.v") if agg.needs_attribute else None
    constraint = AggregateConstraint(AggregateSpec(agg, attr), op, target)
    return Query.build("q", ("t",), predicates, constraint)


# ----------------------------------------------------------------------
# Entries: budget, object tensors, keys
# ----------------------------------------------------------------------
class TestTensorCache:
    def test_oversized_insert_is_counted_noop(self):
        cache = GridTensorCache(max_bytes=100)
        cache.put("big", np.ones(1024))
        assert cache.rejected == 1
        assert cache.lookup("big") is None
        assert cache.current_bytes == 0

    def test_object_tensors_are_cached_and_served(self):
        """The block tensors of user-defined aggregates hold Python
        state tuples; they are cached and served like float ones."""
        cache = GridTensorCache()
        states = np.empty((2, 2), dtype=object)
        states[:] = [[(1.0,), (2.0,)], [(3.0,), (4.0,)]]
        stored = cache.put("k", states)
        found = cache.lookup("k")
        assert found is stored and not found.flags.writeable
        assert found[1, 0] == (3.0,)
        assert cache.hits == 1 and cache.rejected == 0

    def test_key_for_names_the_whole_grid_blocks(self):
        database = _database(seed=36, n=40)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        key = GridTensorCache.key_for(layer, query, space)
        assert key[0] == layer_cache_token(layer)
        # The identity ends with the whole grid's box, then the kind.
        assert key[-3:] == ((0, 0), tuple(space.max_coords), "blocks")
        # The same data in another layer instance keys apart: a layer
        # never serves another layer's tensors.
        other = GridTensorCache.key_for(MemoryBackend(database), query, space)
        assert other != key and other[1:] == key[1:]


# ----------------------------------------------------------------------
# Planner: warm cache short-circuits to materialized
# ----------------------------------------------------------------------
class TestWarmCachePlan:
    def test_auto_prefers_warm_blocks(self):
        """With a grid cache configured ``auto`` plans the whole-grid
        engine, cold or warm, instead of shells (which never touch the
        cache): the cold search writes its block tensor, and a warm
        search reads it with no backend pass."""
        database = _database(seed=39, n=80)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        cache = GridTensorCache()
        config = AcquireConfig(explore_mode="auto", grid_cache=cache)
        plan = choose_explore_mode(space, config)
        assert (plan.mode, plan.reason) == ("materialized", "grid-cache")
        uncached = choose_explore_mode(
            space, AcquireConfig(explore_mode="auto")
        )
        assert (uncached.mode, uncached.reason) == ("shells", "auto")

        cold = Acquire(layer).run(query, config)
        assert cold.stats.explore_mode == "materialized"
        assert cold.stats.execution.grid_materializations == 1
        warm = Acquire(layer).run(query, config)
        assert (warm.stats.explore_mode, warm.stats.plan_reason) == (
            "materialized", "grid-cache"
        )
        assert warm.stats.execution.grid_materializations == 0
        assert warm.stats.execution.cell_queries == 0
        assert warm.stats.execution.cache_hits == 1
        assert answer_key(warm) == answer_key(cold)

    def test_warm_peek_does_not_touch_counters(self):
        """Planning consults no cache entry, warm or cold: the cache
        rule reads only whether a cache is configured."""
        database = _database(seed=40, n=80)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        cache = GridTensorCache()
        blocks_key = GridTensorCache.key_for(layer, query, space)
        shape = tuple(limit + 1 for limit in space.max_coords)
        cache.put(blocks_key, np.zeros(shape))
        config = AcquireConfig(explore_mode="auto", grid_cache=cache)
        choose_explore_mode(space, config)
        assert cache.hits == 0 and cache.misses == 0

    def test_grid_cache_over_the_caps_plans_shells(self):
        """A cached ``auto`` search over ``materialize_cell_cap`` or the
        query budget plans shells, which never touch the cache."""
        database = _database(seed=41, n=80)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        for overrides in (
            {"materialize_cell_cap": 4}, {"max_grid_queries": 4}
        ):
            config = AcquireConfig(
                explore_mode="auto", grid_cache=GridTensorCache(),
                **overrides,
            )
            plan = choose_explore_mode(space, config)
            assert (plan.mode, plan.reason) == ("shells", "auto")
            run = Acquire(layer).run(query, config)
            assert run.stats.plan_reason == "auto"
            assert run.stats.execution.cache_misses == 0
            assert len(config.grid_cache) == 0


# ----------------------------------------------------------------------
# Single-flight: one backend pass per cold key, however many threads
# ----------------------------------------------------------------------
class _SlowGridBackend(MemoryBackend):
    """MemoryBackend whose grid pass blocks long enough for a herd."""

    def __init__(self, database, delay_s=0.1):
        super().__init__(database)
        self.delay_s = delay_s
        self.grid_passes = 0
        self._pass_lock = threading.Lock()

    def _grid_pass(self, prepared, space, lo, hi, shell=None):
        with self._pass_lock:
            self.grid_passes += 1
        time.sleep(self.delay_s)
        return super()._grid_pass(prepared, space, lo, hi, shell=shell)


class _HeldFailureBackend(FailingBackend):
    """FailingBackend whose first pass, the one that fails, waits for
    ``release`` first, so a second reader can park on the flight."""

    def __init__(self, database: Database) -> None:
        super().__init__(database, fail_at=1)
        self.failing = threading.Event()
        self.release = threading.Event()

    def _enter_pass(self) -> None:
        if self.passes + 1 == self.fail_at:
            self.failing.set()
            self.release.wait(5.0)
        super()._enter_pass()


class TestSingleFlight:
    THREADS = 8

    def _setup(self):
        rng = np.random.default_rng(5)
        database = Database()
        database.create_table(
            "data",
            {
                "x": rng.uniform(0, 100, 300),
                "y": rng.uniform(0, 100, 300),
            },
        )
        query = count_query("data", {"x": 40.0, "y": 40.0}, target=90)
        return database, query

    def _race(self, layer, query, cache):
        """Race THREADS whole-grid explorers over one shared cache."""
        space = RefinedSpace(query, 20.0, [60.0, 60.0])
        prepared = layer.prepare(query, [100.0, 100.0])
        aggregate = query.constraint.spec.aggregate
        barrier = threading.Barrier(self.THREADS)
        states: list = [None] * self.THREADS
        errors: list = []

        def worker(index: int) -> None:
            explorer = GridExplorer(
                layer, prepared, space, aggregate, whole=True, cache=cache,
            )
            barrier.wait()
            try:
                states[index] = explorer.block_state(space.max_coords)
            except Exception as error:  # noqa: BLE001 - for the assert
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "explorers deadlocked"
        assert not errors, f"racing explorers crashed: {errors[:1]!r}"
        assert all(state == states[0] for state in states)

    def test_thundering_herd_pays_one_backend_pass(self):
        database, query = self._setup()
        layer = _SlowGridBackend(database)
        cache = GridTensorCache(max_bytes=1 << 24)
        self._race(layer, query, cache)
        assert layer.grid_passes == 1, (
            f"{self.THREADS} threads missing one key executed "
            f"{layer.grid_passes} grid passes — single-flight broke"
        )
        assert cache.inflight_waits >= 1, (
            "no reader ever parked on the leader's flight"
        )

    def test_failed_leader_releases_the_flight(self):
        """A leader whose backend pass raises aborts its flight: the
        reader parked on it wakes and leads, and later readers of the
        key do not wait at all."""
        database, query = self._setup()
        layer = _HeldFailureBackend(database)
        cache = GridTensorCache(max_bytes=1 << 24)
        space = RefinedSpace(query, 20.0, [60.0, 60.0])
        prepared = layer.prepare(query, [100.0, 100.0])
        aggregate = query.constraint.spec.aggregate
        outcomes: dict = {}

        def read(name: str) -> None:
            explorer = GridExplorer(
                layer, prepared, space, aggregate, whole=True, cache=cache,
            )
            try:
                outcomes[name] = explorer.block_state(space.max_coords)
            except EngineError as error:
                outcomes[name] = error

        leader = threading.Thread(target=read, args=("leader",), daemon=True)
        leader.start()
        assert layer.failing.wait(5.0)
        waiter = threading.Thread(target=read, args=("waiter",), daemon=True)
        waiter.start()
        deadline = time.monotonic() + 5.0
        while cache.inflight_waits == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        layer.release.set()
        leader.join(5.0)
        waiter.join(5.0)
        assert not leader.is_alive() and not waiter.is_alive()
        assert isinstance(outcomes["leader"], EngineError)
        assert cache.inflight_waits == 1
        # The waiter led the second pass and published its tensor.
        assert layer.passes == 2 and not cache._flights
        read("later")
        assert outcomes["later"] == outcomes["waiter"]
        assert layer.passes == 2 and cache.inflight_waits == 1
        assert (cache.hits, cache.misses) == (1, 2)


# ----------------------------------------------------------------------
# Fault injection: a backend raising mid-pass on every Explore engine
# ----------------------------------------------------------------------
#: The Explore engines; the small cap makes the ``auto`` search read
#: shells and then go on cell by cell, so a failure can land in a shell
#: pass or after the handover.
ENGINES = {
    "incremental": {"explore_mode": "incremental"},
    "materialized": {"explore_mode": "materialized"},
    "capped": {"explore_mode": "auto", "materialize_cell_cap": 9},
}


class TestBackendFailsMidPass:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_error_propagates_and_retry_matches_clean_run(self, engine):
        database = _database(seed=35, n=220)
        query = _query("COUNT", target=120.0)

        def config(cache):
            return AcquireConfig(
                gamma=20.0, grid_cache=cache, **ENGINES[engine]
            )

        probe = FailingBackend(database)
        clean = Acquire(probe).run(query, config(GridTensorCache()))
        assert clean.answers and probe.passes >= 1
        layer = FailingBackend(database, fail_at=(probe.passes + 1) // 2)
        cache = GridTensorCache()
        with pytest.raises(EngineError):
            Acquire(layer).run(query, config(cache))
        # A failed pass aborts its flight: nothing is left for a later
        # reader of the same key to park on.
        assert not cache._flights
        retry = Acquire(layer).run(query, config(cache))
        assert not cache._flights
        assert answer_key(retry) == answer_key(clean)
