"""Cross-query cache of materialized grid tensors.

The Explore phase's grid engine, in its materialized mode, reduces to
"build an immutable tensor of per-cell aggregate states, then run
prefix passes over a private copy" into the whole grid's block tensor.
The block tensor depends only on the *data-side* identity of the
request — which evaluation layer produced it, which
tables/predicates/aggregate define the cells, and the refined space's
geometry — and **not** on the constraint target. A constraint sweep
(the harness's bread and butter) would therefore rebuild the identical
tensor once per sweep point; this module makes every point after the
first a cache hit.

Keying. A cache key is ``(layer token, query fingerprint, space
geometry, box)``:

- *layer token*: a process-unique integer minted per
  :class:`~repro.engine.backends.EvaluationLayer` instance (not
  ``id()``, which CPython reuses after garbage collection). Two layers
  never share entries, so a layer over different data can never serve
  another layer's tensors — reconnecting to changed data means a new
  layer and thus a cold cache, which is the invalidation story.
- *query fingerprint*: tables, every predicate rendered at score 0 plus
  its refinement parameters, and the aggregate spec. The constraint
  operator and target are deliberately excluded.
- *space geometry*: step and per-dimension coordinate limits.
- *box*: the inclusive ``(lo, hi)`` coordinate bounds of the whole
  grid.

Tensors are stored with ``writeable=False`` so a hit can be handed out
by reference; consumers that need to mutate (the prefix passes) copy
first, which they must do anyway for correctness (see the
``prefix_combine`` aliasing contract in ``grid_explore``).

Tiers. :class:`GridTensorCache` is the in-process memory tier; it can
be backed by a :class:`PersistentGridCache` — a directory of
atomically-published tensor files — so warm tensors survive process
exit and are shared between concurrent processes. The persistent tier
cannot use the process-unique layer token, so keys there swap it for a
*data fingerprint* (:func:`database_digest`): backend class + dataset
content digest. A layer that cannot produce one (e.g. a third-party
wrapper without a ``database``) simply never touches the persistent
tier. Keys end with the kind ``"blocks"``: entries are the grid's
finished post-prefix-pass block tensors — a block hit skips
Explore entirely, the backend pass and the d prefix passes alike. Raw
cell tensors are not cached: the engine reads the blocks first, so a
cell entry could only serve a grid whose blocks entry is gone. The
persistent tier refuses non-float tensors, so the object block tensors
of user-defined aggregates stay in memory and a new process redoes
their grid passes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.exceptions import QueryModelError

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
DEFAULT_PERSISTENT_BYTES = 256 * 1024 * 1024

_layer_tokens = itertools.count(1)
_token_lock = threading.Lock()


def layer_cache_token(layer: object) -> int:
    """Process-unique token identifying an evaluation layer instance.

    Lazily stamped onto the layer the first time it is asked for, so
    tokens are stable for a layer's lifetime but never reused across
    instances the way ``id()`` can be.
    """
    token = getattr(layer, "_grid_cache_token", None)
    if token is None:
        with _token_lock:
            token = getattr(layer, "_grid_cache_token", None)
            if token is None:
                token = next(_layer_tokens)
                layer._grid_cache_token = token  # type: ignore[attr-defined]
    return int(token)


def query_fingerprint(query: Query) -> Tuple[Hashable, ...]:
    """Target-independent identity of the cells a query induces.

    Everything that shapes a cell's aggregate state is included —
    tables, each predicate's rendering at score 0 together with the
    parameters that govern how it refines, and the aggregate spec.
    The constraint operator/target only decide which cells *satisfy*,
    never their states, so sweep points over targets share entries.
    """
    predicates = tuple(
        (
            type(predicate).__name__,
            predicate.name,
            predicate.refinable,
            predicate.describe(0.0),
            float(predicate.weight),
            None if predicate.limit is None else float(predicate.limit),
            float(getattr(predicate, "effective_denominator", 0.0))
            if hasattr(predicate, "effective_denominator")
            else float(getattr(predicate, "denominator", 0.0)),
        )
        for predicate in query.predicates
    )
    return (query.tables, predicates, query.constraint.spec.describe())


def space_fingerprint(space: RefinedSpace) -> Tuple[Hashable, ...]:
    """Geometry of the refined grid: step plus coordinate extents."""
    return (float(space.step), tuple(int(c) for c in space.max_coords))


def database_digest(database: object) -> Tuple[Hashable, ...]:
    """Content digest of a catalog database, stable across processes.

    Hashes every column of every table (crc32 of the raw values), so
    two processes loading the same dataset agree on the digest while
    any data change — a row more, a value off — yields a different
    one. That makes it safe as the persistent-tier replacement for the
    process-unique layer token: stale files can never be served for
    changed data. Memoized on the database object (datasets here are
    immutable once built).
    """
    digest = getattr(database, "_grid_cache_digest", None)
    if digest is not None:
        return digest
    tables = []
    for table in sorted(database, key=lambda t: t.name):
        columns = []
        for name in table.schema.column_names:
            values = np.asarray(table.column(name))
            if values.dtype.kind in "OUS":
                raw = "\x00".join(str(v) for v in values.tolist()).encode()
            else:
                raw = np.ascontiguousarray(values).tobytes()
            columns.append((name, zlib.crc32(raw) & 0xFFFFFFFF))
        tables.append((table.name, len(table), tuple(columns)))
    digest = (database.name, tuple(tables))
    database._grid_cache_digest = digest  # type: ignore[attr-defined]
    return digest


@dataclass(frozen=True)
class TensorKey:
    """A cache key addressing both tiers at once.

    ``memory`` embeds the process-unique layer token; ``persistent``
    (when not None) swaps it for the layer's stable data fingerprint
    so the entry can be found by other processes. ``get``/``put``
    also accept arbitrary plain hashables, which address the memory
    tier only.
    """

    memory: Tuple[Hashable, ...]
    persistent: Optional[Tuple[Hashable, ...]] = None


class PersistentGridCache:
    """Cross-process tensor cache: one checksummed file per tensor.

    The file layout mirrors the ``PagedSubAggregateStore`` page idiom
    (little-endian ``struct``-packed header + raw ``float64`` payload):

    ``magic "RGT1" | crc32(payload) | ndim | shape[0..ndim) | payload``

    Publication is atomic — the file is written under a temp name in
    the cache directory and ``os.replace``d into place, so a reader
    can never observe a half-written (torn) tensor: either the final
    name does not exist yet, or it holds a complete file. Corruption
    of a *published* file (truncation, bit flips) is caught by the
    per-tensor crc32 on read; a corrupt file counts as a miss and is
    deleted. The byte budget is enforced as LRU *across processes*:
    every hit bumps the file's mtime, and inserts evict the
    oldest-mtime files past the budget. Only ``float64`` tensors are
    persisted (object-dtype state arrays stay memory-tier only).
    """

    MAGIC = b"RGT1"
    _HEADER = struct.Struct("<4sIi")
    SUFFIX = ".tensor"
    TEMP_PREFIX = ".tmp-"

    #: Grace period before a stray temp file — a writer that died
    #: between ``open`` and ``os.replace`` — is reaped by another
    #: process's budget sweep. Younger temp files may belong to a
    #: *live* writer mid-publish and are never touched.
    TEMP_REAP_AGE_S = 300.0

    def __init__(
        self, path: str, max_bytes: int = DEFAULT_PERSISTENT_BYTES
    ) -> None:
        if max_bytes <= 0:
            raise QueryModelError(
                f"persistent cache budget must be positive, got {max_bytes}"
            )
        self.path = os.fspath(path)
        self.max_bytes = int(max_bytes)
        os.makedirs(self.path, exist_ok=True)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.rejected = 0
        self.evictions = 0
        self.hit_bytes = 0

    # -- keys -> files --------------------------------------------------
    def file_for(self, key: Hashable) -> str:
        name = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.path, name + self.SUFFIX)

    # -- encoding -------------------------------------------------------
    def _encode(self, tensor: np.ndarray) -> bytes:
        payload = np.ascontiguousarray(tensor, dtype=np.float64).tobytes()
        header = self._HEADER.pack(
            self.MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, tensor.ndim
        )
        shape = struct.pack(f"<{tensor.ndim}q", *tensor.shape)
        return header + shape + payload

    def _decode(self, data: bytes) -> Optional[np.ndarray]:
        """The tensor a file holds, or None for any file that does not
        decode: the crc covers the payload only, so the header is
        checked field by field."""
        if len(data) < self._HEADER.size:
            return None
        magic, crc, ndim = self._HEADER.unpack_from(data)
        if magic != self.MAGIC or ndim < 0:
            return None
        offset = self._HEADER.size + 8 * ndim
        if len(data) < offset:
            return None
        shape = struct.unpack_from(f"<{ndim}q", data, self._HEADER.size)
        if any(extent < 0 for extent in shape):
            return None
        payload = data[offset:]
        if len(payload) != 8 * math.prod(shape):
            return None
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return None
        try:
            tensor = np.frombuffer(payload, dtype=np.float64).reshape(shape)
        except ValueError:  # more dimensions than numpy allows
            return None
        tensor.flags.writeable = False
        return tensor

    # -- store ----------------------------------------------------------
    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Read a published tensor; corrupt/torn files are misses."""
        path = self.file_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        tensor = self._decode(data)
        if tensor is None:
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # LRU touch, visible to other processes
        except OSError:
            pass
        with self._lock:
            self.hits += 1
            self.hit_bytes += int(tensor.nbytes)
        return tensor

    def contains(self, key: Hashable) -> bool:
        """Peek: entry published? No LRU touch, no counters."""
        return os.path.exists(self.file_for(key))

    def put(self, key: Hashable, tensor: np.ndarray) -> bool:
        """Atomically publish a tensor; returns whether it was stored."""
        if tensor.dtype.kind != "f":
            with self._lock:
                self.rejected += 1
            return False
        data = self._encode(tensor)
        if len(data) > self.max_bytes:
            with self._lock:
                self.rejected += 1
            return False
        final = self.file_for(key)
        temp = os.path.join(
            self.path, f"{self.TEMP_PREFIX}{os.getpid()}-{next(self._seq)}"
        )
        try:
            with open(temp, "wb") as handle:
                handle.write(data)
            os.replace(temp, final)
        except OSError:
            try:
                os.unlink(temp)
            except OSError:
                pass
            return False
        with self._lock:
            self.stores += 1
        self._enforce_budget()
        return True

    def _published(self) -> list:
        """(mtime, size, path) of every *published* tensor file.

        In-flight temp files (``TEMP_PREFIX``) are explicitly
        excluded: they are not entries — counting them against the
        budget, or evicting one out from under a concurrent writer's
        ``os.replace``, would turn another process's publish into a
        spurious failure.
        """
        entries = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return entries
        for name in names:
            if name.startswith(self.TEMP_PREFIX):
                continue
            if not name.endswith(self.SUFFIX):
                continue
            path = os.path.join(self.path, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
        return entries

    def _reap_orphans(self) -> None:
        """Delete temp files abandoned by a writer that died mid-publish.

        Only files older than ``TEMP_REAP_AGE_S`` are removed — a
        younger temp file may be a live writer in another process that
        has opened but not yet ``os.replace``d.
        """
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        cutoff = time.time() - self.TEMP_REAP_AGE_S
        for name in names:
            if not name.startswith(self.TEMP_PREFIX):
                continue
            path = os.path.join(self.path, name)
            try:
                if os.stat(path).st_mtime < cutoff:
                    os.unlink(path)
            except OSError:
                continue

    def _enforce_budget(self) -> None:
        self._reap_orphans()
        entries = self._published()
        total = sum(size for _, size, _ in entries)
        entries.sort()  # oldest mtime first
        for mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                # Re-stat before deleting: a concurrent process may
                # have *hit* (and mtime-bumped) this entry since the
                # listing — it is no longer the LRU victim, so skip it
                # rather than evict a hot tensor; the budget converges
                # on the next insert.
                if os.stat(path).st_mtime > mtime:
                    continue
                os.unlink(path)
            except OSError:
                continue
            total -= size
            with self._lock:
                self.evictions += 1

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._published())

    def clear(self) -> None:
        for _, _, path in self._published():
            try:
                os.unlink(path)
            except OSError:
                pass

    def summary(self) -> str:
        with self._lock:
            return (
                f"PersistentGridCache(path={self.path!r}, "
                f"bytes={self.total_bytes()}/{self.max_bytes}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores}, corrupt={self.corrupt}, "
                f"rejected={self.rejected}, evictions={self.evictions})"
            )


class _TensorFlight:
    """One in-flight single-flight computation of a cache key.

    The leader resolves it through
    :meth:`GridTensorCache.complete_flight` /
    :meth:`GridTensorCache.abort_flight`; waiters block on ``event``
    and read ``tensor``/``failed`` afterwards (the Event provides the
    happens-before edge, so no extra lock is needed on the fields).
    """

    __slots__ = ("event", "tensor", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.tensor: Optional[np.ndarray] = None
        self.failed = False


class GridTensorCache:
    """Byte-budgeted LRU cache of immutable grid tensors.

    Thread-safe; shared freely across queries, sweep points, and
    explore modes. Entries whose tensor alone exceeds the budget are
    not admitted (they would evict everything for one use) — each such
    insert counts in ``rejected``. With a ``persistent`` tier attached,
    memory misses fall through to the file store and hits there are
    promoted back into memory (``persistent_hits``).

    Misses can additionally be *single-flighted* through
    :meth:`lookup_or_lead`: the first thread to miss a key becomes the
    leader and computes the tensor once; every other thread missing the
    same key before the leader publishes parks on the leader's flight
    instead of paying its own backend pass (``inflight_waits`` counts
    those parked reads). The grid Explore engine single-flights its
    block tensors this way; the plain :meth:`lookup`/:meth:`put`
    pair ignores flights entirely.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        persistent: Optional[PersistentGridCache] = None,
    ) -> None:
        if max_bytes <= 0:
            raise QueryModelError(
                f"cache budget must be positive, got {max_bytes}"
            )
        self.max_bytes = int(max_bytes)
        self.persistent = persistent
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._flights: dict[Hashable, _TensorFlight] = {}
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0
        self.persistent_hits = 0
        self.inflight_waits = 0

    @staticmethod
    def key_for(
        layer: object, query: Query, space: RefinedSpace
    ) -> TensorKey:
        """Build the canonical cache key of a grid's block tensor.

        The identity ends with the grid's inclusive box and the entry
        kind ``"blocks"``, so keys match those of caches written when
        sub-boxes and other kinds were cached too. The persistent
        component is only present when the layer exposes a stable data
        fingerprint (``persistent_cache_key``); process-local layers get
        a memory-only key.
        """
        identity = (
            query_fingerprint(query),
            space_fingerprint(space),
            (0,) * space.d,
            tuple(int(c) for c in space.max_coords),
            "blocks",
        )
        fingerprint = None
        probe = getattr(layer, "persistent_cache_key", None)
        if callable(probe):
            fingerprint = probe()
        return TensorKey(
            memory=(layer_cache_token(layer),) + identity,
            persistent=None
            if fingerprint is None
            else (fingerprint,) + identity,
        )

    @staticmethod
    def _split(key: Hashable) -> tuple:
        if isinstance(key, TensorKey):
            return key.memory, key.persistent
        return key, None

    def lookup(
        self, key: Hashable
    ) -> tuple[Optional[np.ndarray], Optional[str]]:
        """Two-tier read: ``(tensor, tier)`` with tier in
        ``("memory", "persistent", None)``. A persistent hit is
        promoted into the memory tier; a full miss counts once."""
        mem_key, persistent_key = self._split(key)
        with self._lock:
            tensor = self._entries.get(mem_key)
            if tensor is not None:
                self._entries.move_to_end(mem_key)
                self.hits += 1
                return tensor, "memory"
        if self.persistent is not None and persistent_key is not None:
            tensor = self.persistent.get(persistent_key)
            if tensor is not None:
                stored = self._admit(mem_key, tensor)
                with self._lock:
                    self.persistent_hits += 1
                return stored, "persistent"
        with self._lock:
            self.misses += 1
        return None, None

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Return the cached tensor (read-only) or None; touches LRU."""
        tensor, _ = self.lookup(key)
        return tensor

    def lookup_or_lead(
        self, key: Hashable
    ) -> tuple[Optional[np.ndarray], Optional[str], Optional[_TensorFlight]]:
        """Single-flighted two-tier read: ``(tensor, tier, flight)``.

        On a hit ``flight`` is None and ``tier`` names where the tensor
        came from — ``"memory"``, ``"persistent"``, or ``"inflight"``
        when another thread's in-progress computation of the same key
        supplied it (a thundering-herd save, counted in
        ``inflight_waits``). On a miss the caller is the *leader*:
        ``flight`` is a token it **must** resolve, either by computing
        the tensor and calling :meth:`complete_flight` or by calling
        :meth:`abort_flight` on failure (waiters then retry and one of
        them leads). The persistent tier is probed only by the leader,
        so N threads missing one key pay at most one file read.
        """
        mem_key, persistent_key = self._split(key)
        while True:
            wait_for = None
            with self._lock:
                tensor = self._entries.get(mem_key)
                if tensor is not None:
                    self._entries.move_to_end(mem_key)
                    self.hits += 1
                    return tensor, "memory", None
                flight = self._flights.get(mem_key)
                if flight is None:
                    flight = _TensorFlight()
                    self._flights[mem_key] = flight
                else:
                    self.inflight_waits += 1
                    wait_for = flight
            if wait_for is None:
                break
            wait_for.event.wait()
            if not wait_for.failed and wait_for.tensor is not None:
                with self._lock:
                    self.hits += 1
                return wait_for.tensor, "inflight", None
            # The leader aborted; loop and contend to lead ourselves.
        if self.persistent is not None and persistent_key is not None:
            try:
                tensor = self.persistent.get(persistent_key)
                stored = None if tensor is None else self._admit(mem_key, tensor)
            except BaseException:
                # Waiters would otherwise park on this flight forever.
                self.abort_flight(key)
                raise
            if stored is not None:
                with self._lock:
                    self.persistent_hits += 1
                    self._flights.pop(mem_key, None)
                flight.tensor = stored
                flight.event.set()
                return stored, "persistent", None
        with self._lock:
            self.misses += 1
        return None, None, flight

    def complete_flight(
        self, key: Hashable, tensor: np.ndarray
    ) -> np.ndarray:
        """Publish a led miss: admit the tensor and wake every waiter.

        Returns the stored (read-only) array. Waiters receive it even
        when the cache itself rejects the entry (over-budget tensors
        are still correct answers).
        """
        stored = self.put(key, tensor)
        mem_key, _ = self._split(key)
        with self._lock:
            flight = self._flights.pop(mem_key, None)
        if flight is not None:
            flight.tensor = stored
            flight.event.set()
        return stored

    def abort_flight(self, key: Hashable) -> None:
        """Resolve a led miss without a tensor (the computation failed);
        waiters wake, re-check the cache, and contend to lead."""
        mem_key, _ = self._split(key)
        with self._lock:
            flight = self._flights.pop(mem_key, None)
        if flight is not None:
            flight.failed = True
            flight.event.set()

    def contains(self, key: Hashable) -> bool:
        """Peek either tier without touching LRU order or counters."""
        mem_key, persistent_key = self._split(key)
        with self._lock:
            if mem_key in self._entries:
                return True
        return (
            self.persistent is not None
            and persistent_key is not None
            and self.persistent.contains(persistent_key)
        )

    def put(self, key: Hashable, tensor: np.ndarray) -> np.ndarray:
        """Insert a tensor, evicting LRU entries past the byte budget.

        The stored array is marked read-only; the returned array is the
        stored one, so callers should treat it as immutable too. With a
        persistent tier, float tensors carrying a persistent key are
        also published to disk.
        """
        mem_key, persistent_key = self._split(key)
        stored = self._admit(mem_key, tensor)
        if self.persistent is not None and persistent_key is not None:
            self.persistent.put(persistent_key, stored)
        return stored

    def _admit(self, mem_key: Hashable, tensor: np.ndarray) -> np.ndarray:
        stored = np.ascontiguousarray(tensor)
        if stored is tensor and tensor.flags.writeable:
            stored = tensor.copy()
        stored.flags.writeable = False
        nbytes = int(stored.nbytes)
        with self._lock:
            if nbytes > self.max_bytes:
                self.rejected += 1
                return stored
            previous = self._entries.pop(mem_key, None)
            if previous is not None:
                self.current_bytes -= int(previous.nbytes)
            self._entries[mem_key] = stored
            self.current_bytes += nbytes
            while self.current_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= int(evicted.nbytes)
                self.evictions += 1
        return stored

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def summary(self) -> str:
        with self._lock:
            return (
                f"GridTensorCache(entries={len(self._entries)}, "
                f"bytes={self.current_bytes}/{self.max_bytes}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions}, rejected={self.rejected}, "
                f"persistent_hits={self.persistent_hits}, "
                f"inflight_waits={self.inflight_waits})"
            )
