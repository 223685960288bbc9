"""Grid tensor cache suite: persistence, tiers, single-flight, faults.

Proves the cache contracts of ``docs/EXPLORE_MODES.md``:

* :class:`PersistentGridCache` round-trips tensors through its
  checksummed file format, detects corruption (truncation, bit flips,
  undecodable headers) as a counted miss that deletes the bad file,
  releases its single-flight when the probe itself fails, never serves
  a torn (unpublished) temp file, enforces its byte budget as LRU
  across instances, and rejects oversized/non-float tensors as counted
  no-ops;
* the two-tier :class:`GridTensorCache` promotes persistent hits into
  memory so a *fresh process* (modelled as a fresh cache instance over
  the same directory) serves tensors without backend work;
* ``lookup_or_lead`` single-flights a cache miss: N threads missing one
  key pay one backend pass, and N threads over a cold memory tier pay
  at most one persistent-tier read — for the whole grid and for each
  tile of a tiled one;
* a backend raising mid-pass on any Explore engine propagates, leaves
  no flight behind, and a retry over the same cache answers exactly
  like a clean run;
* the ``auto`` planner short-circuits to ``materialized`` with reason
  ``warm-cache`` when the finished block tensor is already cached.
"""

import os
import struct
import textwrap
import threading
import time
import zlib

import numpy as np
import pytest

import repro
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.grid_cache import (
    GridTensorCache,
    PersistentGridCache,
    TensorKey,
    database_digest,
)
from repro.core.grid_explore import TiledGridExplorer
from repro.core.interval import Interval
from repro.core.plan import choose_explore_mode
from repro.core.predicate import Direction, SelectPredicate
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.memory_backend import MemoryBackend
from repro.exceptions import EngineError, QueryModelError
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
# PersistentGridCache: file format, corruption, torn writes, LRU
# ----------------------------------------------------------------------
class TestPersistentGridCache:
    def test_roundtrip(self, tmp_path):
        store = PersistentGridCache(str(tmp_path))
        tensor = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        assert store.put("k", tensor)
        out = store.get("k")
        assert out is not None and np.array_equal(out, tensor)
        assert out.dtype == np.float64 and not out.flags.writeable
        assert store.hits == 1 and store.stores == 1
        assert store.hit_bytes == tensor.nbytes
        assert store.contains("k") and not store.contains("other")
        assert store.get("other") is None
        assert store.misses == 1

    def test_scalar_roundtrip(self, tmp_path):
        store = PersistentGridCache(str(tmp_path))
        tensor = np.float64(3.25).reshape(())
        assert store.put("s", np.asarray(tensor))
        out = store.get("s")
        assert out is not None and out.shape == () and float(out) == 3.25

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corruption_is_a_counted_miss_and_unlinks(
        self, tmp_path, damage
    ):
        store = PersistentGridCache(str(tmp_path))
        store.put("k", np.ones((4, 4)))
        path = store.file_for("k")
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        if damage == "truncate":
            data = data[: len(data) // 2]
        else:
            data[-1] ^= 0xFF  # flip bits inside the payload
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        assert store.get("k") is None
        assert store.corrupt == 1 and store.misses == 1
        assert not os.path.exists(path), "corrupt file must be deleted"

    @pytest.mark.parametrize("header", ["sign-flipped", "too-many-dims"])
    def test_undecodable_header_is_a_counted_miss(self, tmp_path, header):
        """The crc covers the payload only: a header whose shape passes
        the length check but cannot be decoded is corruption too."""
        store = PersistentGridCache(str(tmp_path))
        path = store.file_for("k")
        # Shape (-2, -3) has the right product; numpy allows 64 dims.
        shape = (-2, -3) if header == "sign-flipped" else (1,) * 65
        payload = np.ones(abs(int(np.prod(shape)))).tobytes()
        with open(path, "wb") as handle:
            handle.write(
                store._HEADER.pack(
                    store.MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(shape)
                )
                + struct.pack(f"<{len(shape)}q", *shape)
                + payload
            )
        assert store.get("k") is None
        assert store.corrupt == 1 and store.misses == 1
        assert not os.path.exists(path), "corrupt file must be deleted"

    def test_failed_probe_releases_the_flight(self, tmp_path):
        """A leader whose persistent probe raises must abort its flight:
        a thread parked on it wakes and leads, and later lookups of the
        key do not wait at all."""
        probing, release = threading.Event(), threading.Event()

        class FailingOnce(PersistentGridCache):
            calls = 0

            def get(self, key):
                FailingOnce.calls += 1
                if FailingOnce.calls == 1:
                    probing.set()
                    release.wait(5.0)
                    raise OSError("disk gone")
                return super().get(key)

        cache = GridTensorCache(persistent=FailingOnce(str(tmp_path)))
        key = TensorKey(memory=("m",), persistent=("p",))
        outcomes: dict = {}

        def lookup(name):
            try:
                outcomes[name] = cache.lookup_or_lead(key)
            except OSError as error:
                outcomes[name] = error

        leader = threading.Thread(
            target=lookup, args=("leader",), daemon=True
        )
        leader.start()
        assert probing.wait(5.0)
        waiter = threading.Thread(
            target=lookup, args=("waiter",), daemon=True
        )
        waiter.start()
        deadline = time.monotonic() + 5.0
        while cache.inflight_waits == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        leader.join(5.0)
        waiter.join(5.0)
        assert not leader.is_alive() and not waiter.is_alive()
        assert isinstance(outcomes["leader"], OSError)
        tensor, tier, flight = outcomes["waiter"]
        assert tensor is None and tier is None and flight is not None
        cache.complete_flight(key, np.ones(3))
        later = threading.Thread(
            target=lookup, args=("later",), daemon=True
        )
        later.start()
        later.join(5.0)
        assert not later.is_alive()
        assert outcomes["later"][1] == "memory"

    def test_torn_publish_never_served(self, tmp_path):
        """A crash between temp write and rename leaves only a .tmp
        file; it must be invisible to readers and a later successful
        publish must win."""
        store = PersistentGridCache(str(tmp_path))
        tensor = np.full((3, 3), 2.5)
        # Simulate the crash: the encoded payload sits under the temp
        # name (even a *complete* one) but was never os.replace'd.
        temp = os.path.join(str(tmp_path), f".tmp-{os.getpid()}-999")
        with open(temp, "wb") as handle:
            handle.write(store._encode(tensor)[: 10])
        assert store.get("k") is None
        assert store.misses == 1 and store.corrupt == 0
        # Recovery: a clean publish over the same key is served whole.
        assert store.put("k", tensor)
        out = store.get("k")
        assert out is not None and np.array_equal(out, tensor)

    def test_lru_across_instances(self, tmp_path):
        entry_bytes = len(
            PersistentGridCache(str(tmp_path))._encode(np.ones(16))
        )
        first = PersistentGridCache(
            str(tmp_path), max_bytes=2 * entry_bytes
        )
        first.put("a", np.ones(16))
        os.utime(first.file_for("a"), (1.0, 1.0))  # force 'a' oldest
        first.put("b", np.full(16, 2.0))
        # A different instance over the same directory (a stand-in for
        # another process) inserts past the budget: oldest-mtime 'a'
        # must be evicted, not the newcomer.
        second = PersistentGridCache(
            str(tmp_path), max_bytes=2 * entry_bytes
        )
        second.put("c", np.full(16, 3.0))
        assert second.evictions == 1
        assert not second.contains("a")
        assert second.contains("b") and second.contains("c")
        assert second.total_bytes() <= 2 * entry_bytes

    def test_oversized_and_nonfloat_rejected(self, tmp_path):
        store = PersistentGridCache(str(tmp_path), max_bytes=64)
        assert not store.put("big", np.ones(1024))
        assert not store.put(
            "obj", np.array([(1.0, 2.0)], dtype=object)
        )
        assert store.rejected == 2 and store.stores == 0
        assert store.total_bytes() == 0

    def test_invalid_budget(self, tmp_path):
        with pytest.raises(QueryModelError):
            PersistentGridCache(str(tmp_path), max_bytes=0)

    def test_concurrent_readers_and_writers(self, tmp_path):
        """Hammer one directory from several threads: every successful
        read returns a complete, checksum-valid tensor."""
        store = PersistentGridCache(str(tmp_path))
        tensors = {
            f"k{i}": np.full((8, 8), float(i) + 0.25) for i in range(4)
        }
        errors: list[str] = []

        def worker(repeat: int) -> None:
            for _ in range(repeat):
                for key, tensor in tensors.items():
                    store.put(key, tensor)
                    out = store.get(key)
                    if out is not None and not np.array_equal(out, tensor):
                        errors.append(key)

        threads = [
            threading.Thread(target=worker, args=(10,)) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.corrupt == 0

    def test_budget_ignores_inflight_temp_files(self, tmp_path):
        """A live writer's temp file is neither an entry nor a victim."""
        entry_bytes = len(
            PersistentGridCache(str(tmp_path))._encode(np.ones(16))
        )
        store = PersistentGridCache(
            str(tmp_path), max_bytes=2 * entry_bytes
        )
        temp = os.path.join(
            str(tmp_path), f"{store.TEMP_PREFIX}{os.getpid()}-777"
        )
        with open(temp, "wb") as handle:
            handle.write(b"x" * (4 * entry_bytes))
        store.put("a", np.ones(16))
        store.put("b", np.full(16, 2.0))
        # The giant temp file would blow the budget if counted; both
        # published entries must survive and the temp must not be
        # reaped (it is younger than the grace period).
        assert store.evictions == 0
        assert store.contains("a") and store.contains("b")
        assert store.total_bytes() == 2 * entry_bytes
        assert os.path.exists(temp)

    def test_orphan_temp_files_reaped_after_grace(self, tmp_path):
        store = PersistentGridCache(str(tmp_path))
        old = os.path.join(str(tmp_path), f"{store.TEMP_PREFIX}1-0")
        young = os.path.join(str(tmp_path), f"{store.TEMP_PREFIX}1-1")
        for temp in (old, young):
            with open(temp, "wb") as handle:
                handle.write(b"partial")
        stale = time.time() - store.TEMP_REAP_AGE_S - 60.0
        os.utime(old, (stale, stale))
        store.put("k", np.ones(8))  # any insert runs the sweep
        assert not os.path.exists(old), "dead writer's temp must be reaped"
        assert os.path.exists(young), "live writer's temp must survive"

    def test_eviction_skips_entries_hit_since_listing(
        self, tmp_path, monkeypatch
    ):
        """The re-stat guard: an entry whose mtime advanced after the
        LRU listing (a concurrent hit) is no longer the victim."""
        entry_bytes = len(
            PersistentGridCache(str(tmp_path))._encode(np.ones(16))
        )
        store = PersistentGridCache(
            str(tmp_path), max_bytes=2 * entry_bytes
        )
        store.put("a", np.ones(16))
        store.put("b", np.full(16, 2.0))
        assert store.evictions == 0
        store.max_bytes = entry_bytes  # now over budget by one entry
        # Serve every listing with stale mtimes, as if each entry was
        # hit between the listing and the unlink attempt.
        real = store._published

        def stale_listing():
            return [
                (mtime - 10.0, size, path)
                for mtime, size, path in real()
            ]

        monkeypatch.setattr(store, "_published", stale_listing)
        store._enforce_budget()
        assert store.evictions == 0
        assert store.contains("a") and store.contains("b")

    def test_two_process_stress(self, tmp_path):
        """Hammer one cache directory from a second live process while
        this one reads and writes: no torn reads, no corruption, and a
        tight budget keeps eviction churn going throughout."""
        import subprocess
        import sys as _sys

        entry_bytes = len(
            PersistentGridCache(str(tmp_path))._encode(np.ones(64))
        )
        budget = 3 * entry_bytes
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            from repro.core.grid_cache import PersistentGridCache

            path, budget = sys.argv[1], int(sys.argv[2])
            store = PersistentGridCache(path, max_bytes=budget)
            for round_ in range(60):
                for i in range(4):
                    tensor = np.full(64, float(i) + 0.5)
                    store.put(f"k{i}", tensor)
                    out = store.get(f"k{i}")
                    if out is not None and not np.array_equal(out, tensor):
                        sys.exit(3)
            sys.exit(4 if store.corrupt else 0)
            """
        )
        src = os.path.join(
            os.path.dirname(repro.__file__), os.pardir
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src), env.get("PYTHONPATH", "")]
        )
        peer = subprocess.Popen(
            [_sys.executable, "-c", script, str(tmp_path), str(budget)],
            env=env,
        )
        store = PersistentGridCache(str(tmp_path), max_bytes=budget)
        mismatches = 0
        while peer.poll() is None:
            for i in range(4):
                tensor = np.full(64, float(i) + 0.5)
                store.put(f"k{i}", tensor)
                out = store.get(f"k{i}")
                if out is not None and not np.array_equal(out, tensor):
                    mismatches += 1
        assert peer.wait() == 0, "peer process saw corruption"
        assert mismatches == 0
        assert store.corrupt == 0


# ----------------------------------------------------------------------
# Two-tier GridTensorCache
# ----------------------------------------------------------------------
class TestTwoTierCache:
    def _key(self, kind="cells"):
        return TensorKey(
            memory=("token", "fp", kind), persistent=("stable", "fp", kind)
        )

    def test_promotion_from_disk(self, tmp_path):
        tensor = np.arange(9, dtype=np.float64).reshape(3, 3)
        first = GridTensorCache(
            persistent=PersistentGridCache(str(tmp_path))
        )
        first.put(self._key(), tensor)
        # A fresh cache over the same directory models a new process:
        # its memory tier is empty, the file tier is not.
        second = GridTensorCache(
            persistent=PersistentGridCache(str(tmp_path))
        )
        found, tier = second.lookup(self._key())
        assert tier == "persistent" and np.array_equal(found, tensor)
        assert second.persistent_hits == 1
        # The hit was promoted: the next lookup is a memory hit.
        found, tier = second.lookup(self._key())
        assert tier == "memory"

    def test_memory_only_key_skips_disk(self, tmp_path):
        persistent = PersistentGridCache(str(tmp_path))
        cache = GridTensorCache(persistent=persistent)
        cache.put("plain-key", np.ones(4))
        assert persistent.total_bytes() == 0
        assert cache.get("plain-key") is not None

    def test_contains_peeks_both_tiers(self, tmp_path):
        key = self._key()
        first = GridTensorCache(
            persistent=PersistentGridCache(str(tmp_path))
        )
        first.put(key, np.ones(4))
        second = GridTensorCache(
            persistent=PersistentGridCache(str(tmp_path))
        )
        assert second.contains(key)
        assert second.hits == 0 and second.persistent_hits == 0

    def test_oversized_insert_is_counted_noop(self):
        cache = GridTensorCache(max_bytes=100)
        cache.put("big", np.ones(1024))
        assert cache.rejected == 1
        assert cache.get("big") is None
        assert cache.current_bytes == 0

    def test_object_tensors_stay_memory_only(self, tmp_path):
        persistent = PersistentGridCache(str(tmp_path))
        cache = GridTensorCache(persistent=persistent)
        states = np.empty((2, 2), dtype=object)
        states[:] = [[(1.0,), (2.0,)], [(3.0,), (4.0,)]]
        cache.put(self._key(), states)
        assert cache.get(self._key()) is not None
        assert persistent.stores == 0 and persistent.rejected == 1

    def test_key_for_persistent_component(self, tmp_path):
        database = _database(seed=36, n=40)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        key = GridTensorCache.key_for(layer, query, space, kind="blocks")
        assert isinstance(key, TensorKey)
        assert key.persistent is not None
        assert ("MemoryBackend", database_digest(database)) in key.persistent
        # Same data in a different layer instance -> same persistent key
        # (this is what makes cross-process reuse possible).
        other = GridTensorCache.key_for(
            MemoryBackend(database), query, space, kind="blocks"
        )
        assert other.persistent == key.persistent
        assert other.memory != key.memory


# ----------------------------------------------------------------------
# Planner: warm cache short-circuits to materialized
# ----------------------------------------------------------------------
class TestWarmCachePlan:
    def test_auto_prefers_warm_blocks(self):
        database = _database(seed=39, n=80)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        cache = GridTensorCache()
        config = AcquireConfig(explore_mode="auto", grid_cache=cache)
        cold = choose_explore_mode(layer, query, space, config)
        assert cold.reason != "warm-cache"
        blocks_key = GridTensorCache.key_for(
            layer, query, space, kind="blocks"
        )
        shape = tuple(limit + 1 for limit in space.max_coords)
        cache.put(blocks_key, np.zeros(shape))
        warm = choose_explore_mode(layer, query, space, config)
        assert warm.mode == "materialized"
        assert warm.reason == "warm-cache"

    def test_warm_peek_does_not_touch_counters(self):
        database = _database(seed=40, n=80)
        layer = MemoryBackend(database)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        cache = GridTensorCache()
        blocks_key = GridTensorCache.key_for(
            layer, query, space, kind="blocks"
        )
        shape = tuple(limit + 1 for limit in space.max_coords)
        cache.put(blocks_key, np.zeros(shape))
        config = AcquireConfig(explore_mode="auto", grid_cache=cache)
        choose_explore_mode(layer, query, space, config)
        assert cache.hits == 0 and cache.misses == 0


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

    def _grid_pass(self, prepared, space, lo, hi):
        with self._pass_lock:
            self.grid_passes += 1
        time.sleep(self.delay_s)
        return super()._grid_pass(prepared, space, lo, hi)


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

    #: Tile shape splitting the 7x7 grid of ``_race`` into 3x3 tiles.
    TILE_SHAPE = (3, 3)
    TILES = 9

    def _race(self, layer, query, cache, tile_shape=None):
        """Race THREADS explorers over one shared cache, with tiles of
        ``tile_shape`` (default: the whole grid). Returns them."""
        space = RefinedSpace(query, 20.0, [60.0, 60.0])
        prepared = layer.prepare(query, [100.0, 100.0])
        aggregate = query.constraint.spec.aggregate
        barrier = threading.Barrier(self.THREADS)
        states: list = [None] * self.THREADS
        explorers: list = [None] * self.THREADS
        errors: list = []

        def worker(index: int) -> None:
            explorer = explorers[index] = TiledGridExplorer(
                layer, prepared, space, aggregate,
                tile_shape=tile_shape, cache=cache,
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
        return explorers

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

    def test_cold_memory_tier_pays_one_persistent_read(self, tmp_path):
        database, query = self._setup()
        layer = _SlowGridBackend(database)
        persistent = PersistentGridCache(str(tmp_path))
        warm = GridTensorCache(max_bytes=1 << 24, persistent=persistent)
        self._race(layer, query, warm)
        passes_after_warm = layer.grid_passes
        # Fresh memory tier over the same file store: the herd must be
        # absorbed by one leader's promotion, not N file reads (and no
        # backend pass at all).
        cold = GridTensorCache(max_bytes=1 << 24, persistent=persistent)
        self._race(layer, query, cold)
        assert layer.grid_passes == passes_after_warm, (
            "a persistent-tier hit still re-executed the backend pass"
        )
        assert cold.persistent_hits == 1, (
            f"{self.THREADS} threads over a cold memory tier paid "
            f"{cold.persistent_hits} persistent reads — the leader "
            "alone should probe the file store"
        )

    def test_tiled_herd_pays_one_pass_and_one_read_per_tile(self, tmp_path):
        """Tile blocks are single-flighted too: a herd racing one
        3x3-tiled grid pays one backend pass per tile, and over the
        warm file tier and a fresh memory tier no pass and one blocks
        file read per tile, by the leader of its flight."""
        database, query = self._setup()
        layer = _SlowGridBackend(database, delay_s=0.05)
        persistent = PersistentGridCache(str(tmp_path))
        warm = GridTensorCache(max_bytes=1 << 24, persistent=persistent)
        explorers = self._race(layer, query, warm, self.TILE_SHAPE)
        assert layer.grid_passes == self.TILES
        assert sum(e.tiles_materialized for e in explorers) == self.TILES
        kinds: list = []  # the kind of every file read; append is atomic
        read = persistent.get

        def counted_read(key):
            kinds.append(key[-1])
            return read(key)

        persistent.get = counted_read
        cold = GridTensorCache(max_bytes=1 << 24, persistent=persistent)
        explorers = self._race(layer, query, cold, self.TILE_SHAPE)
        assert layer.grid_passes == self.TILES
        assert kinds.count("blocks") == self.TILES
        assert all(e.tiles_restored == self.TILES for e in explorers)


# ----------------------------------------------------------------------
# Fault injection: a backend raising mid-pass on every Explore engine
# ----------------------------------------------------------------------
#: The surviving Explore engines; the small cap splits the tiled grid
#: into several tiles, so a failure can land between two of them.
ENGINES = {
    "incremental": {"explore_mode": "incremental"},
    "materialized": {"explore_mode": "materialized"},
    "tiled": {"explore_mode": "tiled", "materialize_cell_cap": 9},
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
