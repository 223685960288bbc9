"""Concurrency and persistence suite for the sharded tile pipeline.

Proves the contracts of ``docs/PARALLELISM.md`` (sharded tiles) and
``docs/EXPLORE_MODES.md`` (persistent cache tier):

* a :class:`TiledGridExplorer` with ``tile_workers > 1`` produces
  block states **bit-identical** to the serial tiled explorer and the
  serial incremental :class:`~repro.core.explore.Explorer`, on every
  backend (exact, estimation, sampling), for randomized tile shapes
  and worker counts (hypothesis);
* a full ACQUIRE run is answer-identical at any worker count;
* :class:`PersistentGridCache` round-trips tensors through its
  checksummed file format, detects corruption (truncation, bit flips,
  undecodable headers) as a counted miss that deletes the bad file,
  releases its single-flight when the probe itself fails, never serves a torn
  (unpublished) temp file, enforces its byte budget as LRU across
  instances, and rejects oversized/non-float tensors as counted no-ops;
* the two-tier :class:`GridTensorCache` promotes persistent hits into
  memory so a *fresh process* (modelled as a fresh cache instance over
  the same directory) serves tensors without backend work;
* the base-class ``execute_cells`` fallback reuses one thread pool
  across calls instead of constructing one per batch;
* the ``auto`` planner short-circuits to ``materialized`` with reason
  ``warm-cache`` when the finished block tensor is already cached.

Aggregate values are multiples of 0.25 (exact binary fractions), as in
``tests/core/test_grid_explore.py``, so bit-identical assertions cannot
be defeated by legitimate reassociation.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquire import Acquire, AcquireConfig
from repro.core.aggregates import AggregateSpec, get_aggregate
from repro.core.expand import make_traversal
from repro.core.explore import Explorer
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
from repro.engine.backends import EvaluationLayer
from repro.engine.catalog import Database
from repro.engine.expression import col
from repro.engine.histogram_backend import HistogramBackend
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sampling import SamplingBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.exceptions import QueryModelError, SearchError

BACKENDS = ("memory", "sqlite", "histogram", "sampling")


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


def _make_layer(backend_name: str, database: Database) -> EvaluationLayer:
    if backend_name == "memory":
        return MemoryBackend(database)
    if backend_name == "sqlite":
        return SQLiteBackend(database)
    if backend_name == "histogram":
        return HistogramBackend(database)
    if backend_name == "sampling":
        return SamplingBackend(database, fraction=0.5, seed=3)
    raise AssertionError(backend_name)


def _grid_coords(space: RefinedSpace) -> list[tuple[int, ...]]:
    return list(make_traversal(space, "lp"))


def _sharded(
    backend_name,
    database,
    query,
    space,
    tile_shape,
    workers,
    cache=None,
):
    layer = _make_layer(backend_name, database)
    explorer = TiledGridExplorer(
        layer,
        layer.prepare(query, [100.0, 100.0]),
        space,
        query.constraint.spec.aggregate,
        tile_shape=tile_shape,
        tile_workers=workers,
        cache=cache,
    )
    return explorer, layer


# ----------------------------------------------------------------------
# Sharded == serial, bit-identical
# ----------------------------------------------------------------------
class TestShardedMatchesSerial:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_all_backends(self, backend_name):
        database = _database(seed=31, n=180)
        query = _query("SUM")
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial_layer = _make_layer(backend_name, database)
        serial = Explorer(
            serial_layer,
            serial_layer.prepare(query, [100.0, 100.0]),
            space,
            query.constraint.spec.aggregate,
        )
        sharded, layer = _sharded(
            backend_name, database, query, space, (3, 3), workers=3
        )
        try:
            sharded.prime_cells([space.max_coords])
            for coords in _grid_coords(space):
                assert sharded.block_state(coords) == serial.block_state(
                    coords
                ), coords
            assert layer.stats.parallel_tiles > 0
        finally:
            sharded.close()

    @pytest.mark.parametrize("aggregate", ("COUNT", "MAX", "AVG"))
    def test_aggregates_match_serial_tiled(self, aggregate):
        database = _database(seed=32, n=160)
        query = _query(aggregate)
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        serial, _ = _sharded(
            "memory", database, query, space, (2, 4), workers=1
        )
        sharded, _ = _sharded(
            "memory", database, query, space, (2, 4), workers=4
        )
        try:
            serial.prime_cells([space.max_coords])
            sharded.prime_cells([space.max_coords])
            assert set(serial._blocks) == set(sharded._blocks)
            for tile, blocks in serial._blocks.items():
                assert np.array_equal(
                    blocks, sharded._blocks[tile]
                ), tile
        finally:
            serial.close()
            sharded.close()

    @settings(max_examples=20, deadline=None)
    @given(
        width_x=st.integers(min_value=1, max_value=5),
        width_y=st.integers(min_value=1, max_value=5),
        workers=st.integers(min_value=2, max_value=5),
    )
    def test_hypothesis_shapes_and_workers(self, width_x, width_y, workers):
        database = _database(seed=33, n=120)
        query = _query("SUM")
        space = RefinedSpace(query, 16.0, [40.0, 40.0])
        serial, _ = _sharded(
            "memory", database, query, space, (width_x, width_y), workers=1
        )
        sharded, _ = _sharded(
            "memory",
            database,
            query,
            space,
            (width_x, width_y),
            workers=workers,
        )
        try:
            serial.prime_cells([space.max_coords])
            sharded.prime_cells([space.max_coords])
            for coords in _grid_coords(space):
                assert sharded.block_state(coords) == serial.block_state(
                    coords
                ), (coords, width_x, width_y, workers)
        finally:
            serial.close()
            sharded.close()

    def test_invalid_worker_count(self):
        database = _database(seed=34, n=30)
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        with pytest.raises(SearchError):
            _sharded("memory", database, query, space, None, workers=0)


# ----------------------------------------------------------------------
# End-to-end: AcquireResult identical at every worker count
# ----------------------------------------------------------------------
class TestEndToEndIdentity:
    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_full_run(self, backend_name):
        database = _database(seed=35, n=220)
        query = _query("COUNT", target=120.0)

        def run(workers):
            layer = _make_layer(backend_name, database)
            config = AcquireConfig(
                gamma=20.0,
                explore_mode="tiled",
                materialize_cell_cap=9,
                tile_workers=workers,
            )
            return Acquire(layer).run(query, config)

        serial, sharded = run(1), run(4)
        assert [a.pscores for a in sharded.answers] == [
            a.pscores for a in serial.answers
        ]
        assert [a.qscore for a in sharded.answers] == [
            a.qscore for a in serial.answers
        ]
        assert [a.aggregate_value for a in sharded.answers] == [
            a.aggregate_value for a in serial.answers
        ]
        assert sharded.stats.tile_workers == 4
        assert serial.stats.tile_workers == 1
        assert sharded.stats.execution.parallel_tiles > 0


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
# Satellite: the execute_cells fallback reuses one pool
# ----------------------------------------------------------------------
class _CellOnlyLayer(EvaluationLayer):
    """Backend without a native bulk path — exercises the base-class
    ``execute_cells`` fallback."""

    def __init__(self, inner: EvaluationLayer) -> None:
        super().__init__()
        self._inner = inner

    def prepare(self, query, dim_caps=None):
        return self._inner.prepare(query, dim_caps)

    def useful_max_scores(self, prepared):
        return self._inner.useful_max_scores(prepared)

    def execute_cell(self, prepared, space, coords):
        self._count_query("cell")
        return self._inner.execute_cell(prepared, space, coords)

    def execute_box(self, prepared, scores):
        self._count_query("box")
        return self._inner.execute_box(prepared, scores)


class TestExecutorReuse:
    def test_pool_survives_across_batches(self):
        database = _database(seed=37, n=60)
        layer = _CellOnlyLayer(MemoryBackend(database))
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        prepared = layer.prepare(query, [100.0, 100.0])
        coords = _grid_coords(space)
        layer.execute_cells(prepared, space, coords[:4], parallelism=2)
        pool = layer._cell_pool
        assert pool is not None
        layer.execute_cells(prepared, space, coords[4:8], parallelism=2)
        assert layer._cell_pool is pool, (
            "fallback must reuse one executor across batches"
        )
        # A different parallelism replaces the pool...
        layer.execute_cells(prepared, space, coords[:4], parallelism=3)
        assert layer._cell_pool is not pool
        # ...and close() releases it; the layer still works afterwards.
        layer.close()
        assert layer._cell_pool is None
        states = layer.execute_cells(
            prepared, space, coords[:2], parallelism=2
        )
        assert len(states) == 2

    def test_serial_path_needs_no_pool(self):
        database = _database(seed=38, n=40)
        layer = _CellOnlyLayer(MemoryBackend(database))
        query = _query()
        space = RefinedSpace(query, 20.0, [70.0, 70.0])
        prepared = layer.prepare(query, [100.0, 100.0])
        layer.execute_cells(
            prepared, space, _grid_coords(space)[:4], parallelism=1
        )
        assert layer._cell_pool is None


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
