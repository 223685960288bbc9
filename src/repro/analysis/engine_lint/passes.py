"""AST passes of the engine lint (EL1xx–EL4xx).

Unlike the ACQ analyzer — which inspects a *user query* against a
catalog — these passes inspect the reproduction's own source, guarding
invariants the type system cannot see:

EL1xx   tensor purity / aliasing. The PR-4 ``prefix_combine`` bug
        (an in-place ``out=`` write through a parameter that aliased a
        cached tensor) motivates this family: inside the tensor-hot
        modules (``core/grid_explore.py``, ``core/grid_cache.py`` and
        the engine backends) mutating a function parameter or a
        cache-returned value in place is flagged.

EL2xx   lock discipline. For every class that owns a
        ``threading.Lock``/``RLock``, any ``self``-rooted attribute
        path written under the lock *somewhere* becomes "guarded";
        reading or writing a guarded path outside a ``with
        self.<lock>:`` block is flagged. ``__init__``/``__post_init__``
        are exempt (no concurrent aliases exist yet), and guarded sets
        merge down the inheritance chain so a subclass touching an
        inherited counter unlocked is still caught.

EL3xx   exception / import policy, absorbed from the retired
        ``tools/lint_invariants.py``: every ``raise`` must use a class
        from :mod:`repro.exceptions` (EL301), and only engine modules
        may import :mod:`sqlite3` (EL302).

EL4xx   counter drift. Attribute access on values statically known to
        be ``ExecutionStats``/``SearchStats`` must name a declared
        field or method (EL401), and a hand-written ``since()`` that
        does not iterate ``dataclasses.fields`` must still mention
        every numeric field (EL402).

Precision notes (documented, deliberate):

* EL2xx treats *any* owned lock as satisfying the guard — a class with
  two locks is assumed to partition its state sensibly.  Reading a
  bare prefix of a guarded path (``self.stats`` when only
  ``self.stats.rows_scanned`` is guarded) is not flagged: handing out
  the object is a policy question, mutating through it is not.
* EL1xx flags by syntactic shape; intentionally in-place kernels are
  recorded in the baseline file with a reason rather than silenced in
  code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine_lint.model import EngineFinding

#: Modules whose code moves ndarrays around; EL1xx applies only here.
TENSOR_SCOPE_MARKERS = ("core/grid_explore.py", "core/grid_cache.py", "engine/")

#: Modules allowed to import sqlite3 (EL302).
ENGINE_SCOPE_MARKER = "engine/"

#: Class names treated as stats dataclasses by EL4xx.
STATS_CLASS_NAMES = frozenset(
    {"ExecutionStats", "SearchStats", "ServiceStats"}
)

#: Raise targets permitted everywhere in addition to repro.exceptions.
RAISE_ALLOWLIST = frozenset({"NotImplementedError"})

#: Methods where unlocked access is allowed: the object is not yet
#: (or no longer) shared, so no concurrent alias can exist.
LOCK_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__"})

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


# --------------------------------------------------------------------------
# module / context model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LintModule:
    """One parsed source file."""

    path: Path
    rel: str  # repo-relative posix path, used in findings and baselines
    tree: ast.Module


def _attr_path(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``("stats", "rows_scanned")`` for ``self.stats.rows_scanned``.

    Returns None unless the chain is rooted at a ``self`` name.
    """
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id == "self" and parts:
        return tuple(reversed(parts))
    return None


def _callable_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_lock_ctor(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and _callable_name(value.func) in _LOCK_FACTORIES


def _walk_class(node: ast.ClassDef) -> Iterator[ast.AST]:
    """Walk a class body without descending into nested classes."""
    stack: List[ast.AST] = list(node.body)
    while stack:
        sub = stack.pop()
        yield sub
        if isinstance(sub, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(sub))


def _lock_items(node: ast.AST, lock_attrs: Set[str]) -> bool:
    """True when a ``with`` statement acquires one of the class locks."""
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    for item in node.items:
        path = _attr_path(item.context_expr)
        if path is not None and len(path) == 1 and path[0] in lock_attrs:
            return True
    return False


def _write_target_paths(target: ast.expr) -> Iterator[Tuple[Tuple[str, ...], ast.expr]]:
    """Self-rooted paths mutated by an assignment target.

    Covers plain attribute stores, subscript stores into an attribute
    (mutating the container counts as writing the attribute), and
    tuple/starred unpacking.
    """
    if isinstance(target, ast.Attribute):
        path = _attr_path(target)
        if path is not None:
            yield path, target
    elif isinstance(target, ast.Subscript):
        base: ast.expr = target.value
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute):
            path = _attr_path(base)
            if path is not None:
                yield path, target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _write_target_paths(element)
    elif isinstance(target, ast.Starred):
        yield from _write_target_paths(target.value)


@dataclass
class ClassInfo:
    """Per-class facts collected in the first phase."""

    name: str
    rel: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    lock_attrs: Set[str] = field(default_factory=set)
    guarded: Set[Tuple[str, ...]] = field(default_factory=set)
    stats_attrs: Dict[str, str] = field(default_factory=dict)


@dataclass
class StatsClassInfo:
    """Field/method inventory of an ExecutionStats/SearchStats class."""

    name: str
    rel: str
    node: ast.ClassDef
    fields: Dict[str, str] = field(default_factory=dict)  # name -> annotation
    methods: Set[str] = field(default_factory=set)


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _annotation_stats_name(node: Optional[ast.expr]) -> Optional[str]:
    """Stats-class name mentioned anywhere inside an annotation."""
    if node is None:
        return None
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in STATS_CLASS_NAMES:
            return sub.id
        if isinstance(sub, ast.Attribute) and sub.attr in STATS_CLASS_NAMES:
            return sub.attr
        if isinstance(sub, ast.Constant) and sub.value in STATS_CLASS_NAMES:
            return str(sub.value)
    return None


def _collect_class(node: ast.ClassDef, rel: str) -> ClassInfo:
    info = ClassInfo(name=node.name, rel=rel, node=node, bases=_base_names(node))
    # Phase a: which attributes are locks?
    for sub in _walk_class(node):
        if isinstance(sub, ast.Assign) and _is_lock_ctor(sub.value):
            for target in sub.targets:
                path = _attr_path(target)
                if path is not None and len(path) == 1:
                    info.lock_attrs.add(path[0])
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                path = _attr_path(item.context_expr)
                if path is not None and len(path) == 1 and "lock" in path[0].lower():
                    info.lock_attrs.add(path[0])
    # Phase b: which self-paths are written under one of those locks?
    for sub in _walk_class(node):
        if not _lock_items(sub, info.lock_attrs):
            continue
        for stmt in sub.body:  # type: ignore[attr-defined]
            for inner in ast.walk(stmt):
                targets: List[ast.expr] = []
                if isinstance(inner, ast.Assign):
                    targets = list(inner.targets)
                elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                    targets = [inner.target]
                elif isinstance(inner, ast.Delete):
                    targets = list(inner.targets)
                for target in targets:
                    for path, _ in _write_target_paths(target):
                        if path[0] not in info.lock_attrs:
                            info.guarded.add(path)
    # Phase c: which attributes hold stats objects?
    for sub in _walk_class(node):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
            ctor = _callable_name(sub.value.func)
            if ctor in STATS_CLASS_NAMES:
                for target in sub.targets:
                    path = _attr_path(target)
                    if path is not None and len(path) == 1:
                        info.stats_attrs[path[0]] = ctor
        elif isinstance(sub, ast.AnnAssign):
            stats = _annotation_stats_name(sub.annotation)
            if stats is not None:
                path = _attr_path(sub.target)
                if path is not None and len(path) == 1:
                    info.stats_attrs[path[0]] = stats
                elif isinstance(sub.target, ast.Name):
                    info.stats_attrs[sub.target.id] = stats
    return info


def _collect_stats_class(node: ast.ClassDef, rel: str) -> StatsClassInfo:
    info = StatsClassInfo(name=node.name, rel=rel, node=node)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ""
            if isinstance(stmt.annotation, ast.Name):
                annotation = stmt.annotation.id
            elif isinstance(stmt.annotation, ast.Constant):
                annotation = str(stmt.annotation.value)
            info.fields[stmt.target.id] = annotation
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.fields[target.id] = ""
    return info


def _runtime_exception_names() -> FrozenSet[str]:
    import repro.exceptions as exc_module

    names = set()
    for name in dir(exc_module):
        obj = getattr(exc_module, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            names.add(name)
    return frozenset(names)


class ProjectContext:
    """Cross-module facts shared by all passes.

    Built once from the full module list so that, e.g., the lock
    discipline of ``EvaluationLayer`` reaches its subclasses in other
    files, and ``ExecutionStats`` fields declared in ``backends.py``
    validate references everywhere.
    """

    def __init__(self, modules: Iterable[LintModule]) -> None:
        self.modules: Tuple[LintModule, ...] = tuple(modules)
        self.classes: Dict[str, ClassInfo] = {}
        self.stats_classes: Dict[str, StatsClassInfo] = {}
        exception_names: Set[str] = set(_runtime_exception_names())
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    info = _collect_class(node, module.rel)
                    self.classes.setdefault(node.name, info)
                    if node.name in STATS_CLASS_NAMES:
                        self.stats_classes.setdefault(
                            node.name, _collect_stats_class(node, module.rel)
                        )
            if module.rel.endswith("exceptions.py"):
                exception_names.update(
                    node.name
                    for node in module.tree.body
                    if isinstance(node, ast.ClassDef)
                )
        self.exception_names: FrozenSet[str] = frozenset(exception_names)

    # -- inheritance merges -------------------------------------------

    def merged_lock_state(
        self, name: str, _seen: Optional[Set[str]] = None
    ) -> Tuple[FrozenSet[str], FrozenSet[Tuple[str, ...]]]:
        seen = _seen if _seen is not None else set()
        if name in seen or name not in self.classes:
            return frozenset(), frozenset()
        seen.add(name)
        info = self.classes[name]
        locks: Set[str] = set(info.lock_attrs)
        guarded: Set[Tuple[str, ...]] = set(info.guarded)
        for base in info.bases:
            base_locks, base_guarded = self.merged_lock_state(base, seen)
            locks.update(base_locks)
            guarded.update(base_guarded)
        return frozenset(locks), frozenset(guarded)

    def merged_stats_attrs(
        self, name: str, _seen: Optional[Set[str]] = None
    ) -> Dict[str, str]:
        seen = _seen if _seen is not None else set()
        if name in seen or name not in self.classes:
            return {}
        seen.add(name)
        info = self.classes[name]
        merged: Dict[str, str] = {}
        for base in info.bases:
            merged.update(self.merged_stats_attrs(base, seen))
        merged.update(info.stats_attrs)
        return merged


# --------------------------------------------------------------------------
# EL1xx — tensor purity / aliasing
# --------------------------------------------------------------------------


def _finding(
    code: str,
    message: str,
    module: LintModule,
    node: ast.AST,
    scope: Tuple[str, ...],
    hint: Optional[str] = None,
) -> EngineFinding:
    return EngineFinding(
        code=code,
        message=message,
        path=module.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        symbol=".".join(scope),
        hint=hint,
    )


def _function_params(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    names.discard("self")
    names.discard("cls")
    return names


_CACHE_ACCESSORS = frozenset({"lookup", "get", "put"})


def _cache_born_targets(node: ast.Assign) -> Iterator[str]:
    """Names bound to values fetched from a cache-like receiver."""
    value = node.value
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)):
        return
    if value.func.attr not in _CACHE_ACCESSORS:
        return
    receiver = value.func.value
    receiver_name = ""
    if isinstance(receiver, ast.Name):
        receiver_name = receiver.id
    elif isinstance(receiver, ast.Attribute):
        receiver_name = receiver.attr
    if "cache" not in receiver_name.lower():
        return
    for target in node.targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    yield element.id


def _subscript_base_name(target: ast.expr) -> Optional[Tuple[str, ast.expr]]:
    if not isinstance(target, ast.Subscript):
        return None
    base: ast.expr = target.value
    while isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Name):
        return base.id, target
    return None


def tensor_purity_pass(module: LintModule, ctx: ProjectContext) -> List[EngineFinding]:
    """EL101–EL104: in-place mutation through parameters/cache values."""
    if not any(marker in module.rel for marker in TENSOR_SCOPE_MARKERS):
        return []
    findings: List[EngineFinding] = []

    def scan(
        node: ast.AST,
        params: FrozenSet[str],
        cache_born: Set[str],
        scope: Tuple[str, ...],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = params | frozenset(_function_params(node.args))
            child_scope = scope + (node.name,)
            born: Set[str] = set(cache_born)
            for stmt in node.body:
                scan(stmt, inner, born, child_scope)
            return
        if isinstance(node, ast.Lambda):
            inner = params | frozenset(_function_params(node.args))
            scan(node.body, inner, set(cache_born), scope + ("<lambda>",))
            return
        if isinstance(node, ast.ClassDef):
            child_scope = scope + (node.name,)
            for stmt in node.body:
                scan(stmt, params, cache_born, child_scope)
            return
        if isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                name = node.target.id
                if name in params:
                    findings.append(
                        _finding(
                            "EL101",
                            f"augmented assignment mutates parameter {name!r} in place",
                            module,
                            node,
                            scope,
                            hint="callers may hold aliases; assign a new value or copy first",
                        )
                    )
                elif name in cache_born:
                    findings.append(
                        _finding(
                            "EL104",
                            f"augmented assignment mutates cache-returned value {name!r}",
                            module,
                            node,
                            scope,
                            hint="cached tensors are shared; copy before mutating",
                        )
                    )
            based = _subscript_base_name(node.target)
            if based is not None:
                name, span = based
                if name in params:
                    findings.append(
                        _finding(
                            "EL102",
                            f"subscript store mutates parameter {name!r} in place",
                            module,
                            span,
                            scope,
                            hint="callers may hold aliases; write into a local copy",
                        )
                    )
                elif name in cache_born:
                    findings.append(
                        _finding(
                            "EL104",
                            f"subscript store mutates cache-returned value {name!r}",
                            module,
                            span,
                            scope,
                            hint="cached tensors are shared; copy before mutating",
                        )
                    )
        elif isinstance(node, ast.Assign):
            for born_name in _cache_born_targets(node):
                cache_born.add(born_name)
            for target in node.targets:
                based = _subscript_base_name(target)
                if based is None:
                    continue
                name, span = based
                if name in params:
                    findings.append(
                        _finding(
                            "EL102",
                            f"subscript store mutates parameter {name!r} in place",
                            module,
                            span,
                            scope,
                            hint="callers may hold aliases; write into a local copy",
                        )
                    )
                elif name in cache_born:
                    findings.append(
                        _finding(
                            "EL104",
                            f"subscript store mutates cache-returned value {name!r}",
                            module,
                            span,
                            scope,
                            hint="cached tensors are shared; copy before mutating",
                        )
                    )
            # a rebind kills the alias: ``x = cache.get(); x = x.copy()``
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in cache_born:
                    if target.id not in set(_cache_born_targets(node)):
                        cache_born.discard(target.id)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg != "out" or not isinstance(keyword.value, ast.Name):
                    continue
                name = keyword.value.id
                if name in params:
                    findings.append(
                        _finding(
                            "EL103",
                            f"out= aliases parameter {name!r}; the in-place write escapes the callee",
                            module,
                            keyword.value,
                            scope,
                            hint="allocate the output locally, or document the in-place contract and suppress",
                        )
                    )
                elif name in cache_born:
                    findings.append(
                        _finding(
                            "EL104",
                            f"out= writes into cache-returned value {name!r}",
                            module,
                            keyword.value,
                            scope,
                            hint="cached tensors are shared; copy before mutating",
                        )
                    )
        for child in ast.iter_child_nodes(node):
            scan(child, params, cache_born, scope)

    for stmt in module.tree.body:
        scan(stmt, frozenset(), set(), ())
    return findings


# --------------------------------------------------------------------------
# EL2xx — lock discipline
# --------------------------------------------------------------------------


def _path_text(path: Tuple[str, ...]) -> str:
    return "self." + ".".join(path)


def lock_discipline_pass(module: LintModule, ctx: ProjectContext) -> List[EngineFinding]:
    """EL201/EL202: unlocked write/read of a lock-guarded attribute path."""
    findings: List[EngineFinding] = []

    def check_class(node: ast.ClassDef, scope: Tuple[str, ...]) -> None:
        locks, guarded = ctx.merged_lock_state(node.name)
        class_scope = scope + (node.name,)
        if locks and guarded:
            lock_text = ", ".join(f"self.{name}" for name in sorted(locks))

            def write_hit(path: Tuple[str, ...]) -> bool:
                return any(
                    path[: len(g)] == g or g[: len(path)] == path for g in guarded
                )

            def read_hit(path: Tuple[str, ...]) -> bool:
                return any(path[: len(g)] == g for g in guarded)

            def flag(code: str, verb: str, path: Tuple[str, ...], span: ast.AST, fn_scope: Tuple[str, ...]) -> None:
                findings.append(
                    _finding(
                        code,
                        f"{verb} {_path_text(path)} outside the guarding lock ({lock_text})",
                        module,
                        span,
                        fn_scope,
                        hint=f"wrap the access in a with-block on the guarding lock ({lock_text})",
                    )
                )

            def handle_target(target: ast.expr, under: bool, fn_scope: Tuple[str, ...]) -> None:
                if isinstance(target, ast.Attribute):
                    path = _attr_path(target)
                    if path is not None:
                        if not under and path[0] not in locks and write_hit(path):
                            flag("EL201", "write to", path, target, fn_scope)
                        return  # the chain itself carries no further reads
                    scan(target.value, under, fn_scope)
                    return
                if isinstance(target, ast.Subscript):
                    base: ast.expr = target
                    while isinstance(base, ast.Subscript):
                        scan(base.slice, under, fn_scope)
                        base = base.value
                    path = _attr_path(base) if isinstance(base, ast.Attribute) else None
                    if path is not None:
                        # mutating the container counts as writing the attr
                        if not under and path[0] not in locks and write_hit(path):
                            flag("EL201", "write to", path, target, fn_scope)
                        return
                    scan(base, under, fn_scope)
                    return
                if isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        handle_target(element, under, fn_scope)
                    return
                if isinstance(target, ast.Starred):
                    handle_target(target.value, under, fn_scope)

            def scan(sub: ast.AST, under: bool, fn_scope: Tuple[str, ...]) -> None:
                if isinstance(sub, (ast.With, ast.AsyncWith)):
                    inner = under or _lock_items(sub, locks)
                    for item in sub.items:
                        scan(item.context_expr, under, fn_scope)
                        if item.optional_vars is not None:
                            handle_target(item.optional_vars, inner, fn_scope)
                    for stmt in sub.body:
                        scan(stmt, inner, fn_scope)
                    return
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        handle_target(target, under, fn_scope)
                    scan(sub.value, under, fn_scope)
                    return
                if isinstance(sub, ast.AugAssign):
                    handle_target(sub.target, under, fn_scope)
                    scan(sub.value, under, fn_scope)
                    return
                if isinstance(sub, ast.AnnAssign):
                    if sub.value is not None:
                        handle_target(sub.target, under, fn_scope)
                        scan(sub.value, under, fn_scope)
                    return
                if isinstance(sub, ast.Delete):
                    for target in sub.targets:
                        handle_target(target, under, fn_scope)
                    return
                if isinstance(sub, ast.Attribute):
                    path = _attr_path(sub)
                    if path is not None and path[0] not in locks and not under:
                        if read_hit(path):
                            flag("EL202", "read of", path, sub, fn_scope)
                            return  # don't re-flag the inner chain
                    scan(sub.value, under, fn_scope)
                    return
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested_scope = fn_scope + (sub.name,)
                    for stmt in sub.body:
                        scan(stmt, under, nested_scope)
                    return
                if isinstance(sub, ast.Lambda):
                    scan(sub.body, under, fn_scope + ("<lambda>",))
                    return
                if isinstance(sub, ast.ClassDef):
                    check_class(sub, fn_scope)
                    return
                for child in ast.iter_child_nodes(sub):
                    scan(child, under, fn_scope)

            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt.name in LOCK_EXEMPT_METHODS:
                        continue
                    fn_scope = class_scope + (stmt.name,)
                    for inner_stmt in stmt.body:
                        scan(inner_stmt, False, fn_scope)
                elif isinstance(stmt, ast.ClassDef):
                    check_class(stmt, class_scope)
        else:
            for stmt in node.body:
                if isinstance(stmt, ast.ClassDef):
                    check_class(stmt, class_scope)

    def find_classes(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                check_class(child, scope)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                find_classes(child, scope + (child.name,))
            else:
                find_classes(child, scope)

    find_classes(module.tree, ())
    return findings


# --------------------------------------------------------------------------
# EL3xx — exception / import policy (absorbed from tools/lint_invariants.py)
# --------------------------------------------------------------------------


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return "<expression>"


def exception_policy_pass(module: LintModule, ctx: ProjectContext) -> List[EngineFinding]:
    """EL301 (typed exceptions) and EL302 (sqlite3 isolation)."""
    findings: List[EngineFinding] = []
    in_engine = ENGINE_SCOPE_MARKER in module.rel
    is_exceptions_module = module.rel.endswith("exceptions.py")

    def check_import(name: str, node: ast.AST, scope: Tuple[str, ...]) -> None:
        if name.split(".")[0] == "sqlite3" and not in_engine:
            findings.append(
                _finding(
                    "EL302",
                    "sqlite3 may only be imported under src/repro/engine/",
                    module,
                    node,
                    scope,
                    hint="go through the evaluation-layer API or repro.engine.sqlite_util",
                )
            )

    def scan(node: ast.AST, scope: Tuple[str, ...]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                check_import(alias.name, node, scope)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                check_import(node.module, node, scope)
        elif isinstance(node, ast.Raise) and not is_exceptions_module:
            name = _raised_name(node)
            ok = (
                name is None
                or name in ctx.exception_names
                or name in RAISE_ALLOWLIST
                or (name is not None and name[:1].islower() and name != "<expression>")
                or (name == "AttributeError" and scope[-1:] == ("__getattr__",))
            )
            if not ok:
                findings.append(
                    _finding(
                        "EL301",
                        f"raise {name} — raise a class from repro.exceptions instead",
                        module,
                        node,
                        scope,
                        hint="pick (or add) a ReproError subclass so callers can catch one base type",
                    )
                )
        new_scope = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            new_scope = scope + (node.name,)
        elif isinstance(node, ast.Lambda):
            new_scope = scope + ("<lambda>",)
        for child in ast.iter_child_nodes(node):
            scan(child, new_scope)

    scan(module.tree, ())
    return findings


# --------------------------------------------------------------------------
# EL4xx — stats counter drift
# --------------------------------------------------------------------------

#: Attributes always fine on a stats object (dataclass/Python protocol).
_STATS_ATTR_ALLOWLIST = frozenset(
    {"__dict__", "__class__", "__dataclass_fields__"}
)

_NUMERIC_ANNOTATIONS = frozenset({"int", "float"})


def stats_drift_pass(module: LintModule, ctx: ProjectContext) -> List[EngineFinding]:
    """EL401 (undeclared field reference) and EL402 (since() coverage)."""
    if not ctx.stats_classes:
        return []
    findings: List[EngineFinding] = []

    def stats_info(name: Optional[str]) -> Optional[StatsClassInfo]:
        if name is None:
            return None
        return ctx.stats_classes.get(name)

    def check_access(
        node: ast.Attribute, owner: StatsClassInfo, scope: Tuple[str, ...]
    ) -> None:
        attr = node.attr
        if (
            attr in owner.fields
            or attr in owner.methods
            or attr.startswith("__")
            or attr in _STATS_ATTR_ALLOWLIST
        ):
            return
        findings.append(
            _finding(
                "EL401",
                f"{owner.name} has no field {attr!r}",
                module,
                node,
                scope,
                hint=f"declare {attr!r} on {owner.name} ({owner.rel}) or fix the reference",
            )
        )

    def scan_function(
        node: ast.AST,
        local_stats: Dict[str, str],
        attr_stats: Dict[str, str],
        scope: Tuple[str, ...],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = dict(local_stats)
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                stats = _annotation_stats_name(arg.annotation)
                if stats is not None:
                    inner[arg.arg] = stats
            child_scope = scope + (node.name,)
            for stmt in node.body:
                scan_function(stmt, inner, attr_stats, child_scope)
            return
        if isinstance(node, ast.ClassDef):
            scan_class(node, scope)
            return
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Call):
                ctor = _callable_name(node.value.func)
                if ctor in STATS_CLASS_NAMES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_stats[target.id] = ctor
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            stats = _annotation_stats_name(node.annotation)
            if stats is not None:
                local_stats[node.target.id] = stats
        if isinstance(node, ast.Attribute):
            owner: Optional[StatsClassInfo] = None
            value = node.value
            if isinstance(value, ast.Name):
                owner = stats_info(local_stats.get(value.id))
            elif isinstance(value, ast.Attribute):
                path = _attr_path(value)
                if path is not None and len(path) == 1:
                    owner = stats_info(attr_stats.get(path[0]))
            if owner is not None:
                check_access(node, owner, scope)
        for child in ast.iter_child_nodes(node):
            scan_function(child, local_stats, attr_stats, scope)

    def scan_class(node: ast.ClassDef, scope: Tuple[str, ...]) -> None:
        attr_stats = ctx.merged_stats_attrs(node.name)
        class_scope = scope + (node.name,)
        if node.name in STATS_CLASS_NAMES:
            check_since(node, class_scope)
        for stmt in node.body:
            scan_function(stmt, {}, attr_stats, class_scope)

    def check_since(node: ast.ClassDef, class_scope: Tuple[str, ...]) -> None:
        owner = ctx.stats_classes.get(node.name)
        if owner is None or owner.rel != module.rel:
            return
        since = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "since"
            ),
            None,
        )
        if since is None:
            return
        uses_fields = any(
            isinstance(sub, ast.Call) and _callable_name(sub.func) == "fields"
            for sub in ast.walk(since)
        )
        if uses_fields:
            return
        mentioned: Set[str] = set()
        for sub in ast.walk(since):
            if isinstance(sub, ast.Attribute):
                mentioned.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                mentioned.add(sub.value)
        missing = sorted(
            name
            for name, annotation in owner.fields.items()
            if annotation in _NUMERIC_ANNOTATIONS and name not in mentioned
        )
        if missing:
            findings.append(
                _finding(
                    "EL402",
                    f"{node.name}.since() does not cover numeric field(s): "
                    + ", ".join(missing),
                    module,
                    since,
                    class_scope + ("since",),
                    hint="iterate dataclasses.fields(self) instead of hand-listing fields",
                )
            )

    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            scan_class(stmt, ())
        else:
            scan_function(stmt, {}, {}, ())
    return findings


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

PassFn = Callable[[LintModule, ProjectContext], List[EngineFinding]]

ENGINE_PASSES: Tuple[PassFn, ...] = (
    tensor_purity_pass,
    lock_discipline_pass,
    exception_policy_pass,
    stats_drift_pass,
)


def run_passes(
    modules: Iterable[LintModule],
    ctx: Optional[ProjectContext] = None,
    passes: Tuple[PassFn, ...] = ENGINE_PASSES,
) -> List[EngineFinding]:
    """Run every pass over every module and pool the findings."""
    module_list = list(modules)
    context = ctx if ctx is not None else ProjectContext(module_list)
    findings: List[EngineFinding] = []
    for module in module_list:
        for engine_pass in passes:
            findings.extend(engine_pass(module, context))
    return findings
