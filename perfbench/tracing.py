"""Span tracing of the system's public entry points, from outside it.

:class:`Tracer` replaces a fixed list of public methods and functions
with wrappers that record one :class:`Span` per call — name, start,
end, parent span and request id — and restores the originals when it
is uninstalled. Nothing inside ``src/`` changes; the wrapped seams are:

* ``Acquire.run`` (``core.acquire``) and ``AcquireService.submit``
  (``service.submit``);
* ``choose_explore_mode`` as the driver calls it, i.e. the name bound in
  ``repro.core.acquire`` (``core.plan``), and ``contract_query``
  (``core.contraction``);
* the Explore engines' ``compute_aggregate`` / ``prime_cells``
  (``core.explore``);
* ``GridTensorCache.lookup`` / ``lookup_or_lead`` / ``put``
  (``core.grid_cache.lookup`` / ``.put``);
* each backend's ``prepare`` / ``useful_max_scores`` and ``execute_*``
  methods (``engine.prepare`` / ``.cell`` / ``.grid`` / ``.box``).

A span's parent is the innermost open span on the same thread. A root
``Acquire.run`` takes its request id either from :meth:`Tracer.tag`
(closed loop, same thread) or from :meth:`Tracer.tag_query`, which the
open-loop generator calls before ``submit`` so the service worker that
later runs the query claims the id — that is how ids correlate across
threads. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: Backend methods wrapped on every backend class, by span name.
ENGINE_METHODS = {
    "engine.prepare": ("prepare", "useful_max_scores"),
    "engine.cell": ("execute_cell", "execute_cells"),
    "engine.grid": ("execute_grid", "execute_grid_tile", "execute_grid_tiles"),
    "engine.box": ("execute_box", "execute_original"),
}

#: Root span of one search; per-layer self times partition it.
REQUEST_SPAN = "core.acquire"


class Span:
    __slots__ = ("name", "parent", "rid", "thread", "start", "end")

    def __init__(self, name: str, parent: Optional["Span"], rid: Any) -> None:
        self.name = name
        self.parent = parent
        self.rid = rid
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._claims: dict[int, deque] = defaultdict(deque)
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # -- request ids ---------------------------------------------------
    def tag(self, rid: Any) -> None:
        """Request id for root spans opened next on this thread."""
        self._local.rid = rid

    def tag_query(self, query: Any, rid: Any) -> None:
        """Request id the ``Acquire.run`` of ``query`` claims, on
        whichever thread it runs."""
        self._claims[id(query)].append(rid)

    # -- wrapping ------------------------------------------------------
    def _wrap(
        self, name: str, fn: Callable, claims_query: bool = False
    ) -> Callable:
        local, spans, claims = self._local, self.spans, self._claims

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None:
                rid = parent.rid
            elif claims_query and claims.get(id(args[1])):
                rid = claims[id(args[1])].popleft()
            else:
                rid = getattr(local, "rid", None)
            span = Span(name, parent, rid)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)

        return traced

    def _patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), **options))

    def install(self) -> None:
        from repro.core import acquire, contraction
        from repro.core.explore import Explorer
        from repro.core.grid_cache import GridTensorCache
        from repro.core.grid_explore import GridExplorer, TiledGridExplorer
        from repro.engine.memory_backend import MemoryBackend
        from repro.engine.sqlite_backend import SQLiteBackend
        from repro.service.service import AcquireService

        self._patch(acquire.Acquire, "run", REQUEST_SPAN, claims_query=True)
        self._patch(AcquireService, "submit", "service.submit")
        self._patch(acquire, "choose_explore_mode", "core.plan")
        self._patch(contraction, "contract_query", "core.contraction")
        for explorer in (Explorer, GridExplorer, TiledGridExplorer):
            for attr in ("compute_aggregate", "prime_cells"):
                self._patch(explorer, attr, "core.explore")
        for attr in ("lookup", "lookup_or_lead"):
            self._patch(GridTensorCache, attr, "core.grid_cache.lookup")
        self._patch(GridTensorCache, "put", "core.grid_cache.put")
        for backend in (MemoryBackend, SQLiteBackend):
            for name, attrs in ENGINE_METHODS.items():
                for attr in attrs:
                    self._patch(backend, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """One JSON array per line: index, name, start, end, parent
        index (or null), request id, thread."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for position, span in enumerate(self.spans):
                parent = index.get(id(span.parent)) if span.parent else None
                out.write(
                    json.dumps(
                        [
                            position, span.name, span.start, span.end,
                            parent, span.rid, span.thread,
                        ]
                    )
                    + "\n"
                )


@dataclass
class Breakdown:
    """Per-layer totals of one traced run."""

    self_ms: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    request_ms: list[float] = field(default_factory=list)
    #: Request id -> start of its root ``Acquire.run`` span.
    request_start: dict[Any, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of ``span``'s interval covered by its children."""
    total, run_start, run_end = 0.0, None, None
    for start, end in sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    ):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def breakdown(spans: list[Span]) -> Breakdown:
    """Self time and call count per span name, plus the checks that
    no child leaves its parent's interval and that the self times of
    every request tree add up to its root span."""
    result = Breakdown()
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    self_s: dict[int, float] = {}
    for span in spans:
        kids = children.get(id(span), [])
        for kid in kids:
            if kid.start < span.start or kid.end > span.end:
                result.problems.append(
                    f"{kid.name} [{kid.start:.6f}, {kid.end:.6f}] leaves "
                    f"its parent {span.name} [{span.start:.6f}, "
                    f"{span.end:.6f}]"
                )
        self_s[id(span)] = span.duration - _covered(span, kids)

    tree_s: dict[int, float] = defaultdict(float)
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        tree_s[id(root)] += self_s[id(span)]
        result.self_ms[span.name] = (
            result.self_ms.get(span.name, 0.0) + 1000.0 * self_s[id(span)]
        )
        # Calls into a layer: nested spans of the same layer (a base
        # class execute_cells looping over execute_cell) count once.
        if span.parent is None or span.parent.name != span.name:
            result.calls[span.name] = result.calls.get(span.name, 0) + 1
        if span.parent is None:
            if span.name == REQUEST_SPAN:
                result.request_ms.append(1000.0 * span.duration)
                result.request_start[span.rid] = span.start
            elif span.name != "service.submit":
                result.problems.append(f"span {span.name} has no request")

    for span in spans:
        if span.parent is None:
            gap = abs(tree_s[id(span)] - span.duration)
            if gap > 1e-6 + 1e-9 * span.duration:
                result.problems.append(
                    f"self times of request {span.rid!r} sum to "
                    f"{tree_s[id(span)]:.6f}s, its span is "
                    f"{span.duration:.6f}s"
                )
    return result
