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
geometry, box, "blocks")``:

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
  grid, then the kind ``"blocks"``: entries are the grid's finished
  post-prefix-pass block tensors, so a hit skips Explore entirely,
  the backend pass and the d prefix passes alike. Raw cell tensors
  are not cached: the engine reads the blocks first, so a cell entry
  could only serve a grid whose blocks entry is gone.

Tensors are stored with ``writeable=False`` so a hit can be handed out
by reference; consumers that need to mutate (the prefix passes) copy
first, which they must do anyway for correctness (see the
``prefix_combine`` aliasing contract in ``grid_explore``). The cache
lives in one process: a new process starts cold.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.core.query import Query
from repro.core.refined_space import RefinedSpace
from repro.exceptions import QueryModelError

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

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
    insert counts in ``rejected``.

    Misses can additionally be *single-flighted* through
    :meth:`lookup_or_lead`: the first thread to miss a key becomes the
    leader and computes the tensor once; every other thread missing the
    same key before the leader publishes parks on the leader's flight
    instead of paying its own backend pass (``inflight_waits`` counts
    those parked reads). The grid Explore engine single-flights its
    block tensors this way; the plain :meth:`lookup`/:meth:`put`
    pair ignores flights entirely.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise QueryModelError(
                f"cache budget must be positive, got {max_bytes}"
            )
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._flights: dict[Hashable, _TensorFlight] = {}
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0
        self.inflight_waits = 0

    @staticmethod
    def key_for(
        layer: object, query: Query, space: RefinedSpace
    ) -> Tuple[Hashable, ...]:
        """The cache key of a grid's block tensor: the layer's token,
        the query and space fingerprints, the whole grid's inclusive
        box and the entry kind ``"blocks"``."""
        return (
            layer_cache_token(layer),
            query_fingerprint(query),
            space_fingerprint(space),
            (0,) * space.d,
            tuple(int(c) for c in space.max_coords),
            "blocks",
        )

    def lookup(self, key: Hashable) -> Optional[np.ndarray]:
        """The cached tensor (read-only) or None; a hit touches the LRU
        order, and each call counts one hit or one miss."""
        with self._lock:
            tensor = self._entries.get(key)
            if tensor is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return tensor

    def lookup_or_lead(
        self, key: Hashable
    ) -> tuple[Optional[np.ndarray], Optional[_TensorFlight]]:
        """Single-flighted read: ``(tensor, flight)``.

        On a hit ``flight`` is None; the tensor was cached, or another
        thread's in-progress computation of the same key supplied it
        (a thundering-herd save, counted in ``inflight_waits``). On a
        miss the caller is the *leader*: ``flight`` is a token it
        **must** resolve, either by computing the tensor and calling
        :meth:`complete_flight` or by calling :meth:`abort_flight` on
        failure (waiters then retry and one of them leads).
        """
        while True:
            with self._lock:
                tensor = self._entries.get(key)
                if tensor is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return tensor, None
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = _TensorFlight()
                    self.misses += 1
                    return None, flight
                self.inflight_waits += 1
            flight.event.wait()
            if not flight.failed and flight.tensor is not None:
                with self._lock:
                    self.hits += 1
                return flight.tensor, None
            # The leader aborted; loop and contend to lead ourselves.

    def complete_flight(
        self, key: Hashable, tensor: np.ndarray
    ) -> np.ndarray:
        """Publish a led miss: admit the tensor and wake every waiter.

        Returns the stored (read-only) array. Waiters receive it even
        when the cache itself rejects the entry (over-budget tensors
        are still correct answers).
        """
        stored = self.put(key, tensor)
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.tensor = stored
            flight.event.set()
        return stored

    def abort_flight(self, key: Hashable) -> None:
        """Resolve a led miss without a tensor (the computation failed);
        waiters wake, re-check the cache, and contend to lead."""
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.failed = True
            flight.event.set()

    def put(self, key: Hashable, tensor: np.ndarray) -> np.ndarray:
        """Insert a tensor, evicting LRU entries past the byte budget.

        The stored array is marked read-only; the returned array is the
        stored one, so callers should treat it as immutable too.
        """
        stored = np.ascontiguousarray(tensor)
        if stored is tensor and tensor.flags.writeable:
            stored = tensor.copy()
        stored.flags.writeable = False
        nbytes = int(stored.nbytes)
        with self._lock:
            if nbytes > self.max_bytes:
                self.rejected += 1
                return stored
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.current_bytes -= int(previous.nbytes)
            self._entries[key] = stored
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
                f"inflight_waits={self.inflight_waits})"
            )
