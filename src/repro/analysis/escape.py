"""Escape analysis: what crosses thread, process, and module boundaries.

Three questions the concurrency rules need answered per module:

* **Which functions are concurrency entry points?**  Names passed as
  ``target=``/``initializer=`` to ``Thread``/``Process``/pool factories,
  or submitted via ``pool.submit``/``map``/``apply_async`` — the code
  that runs on another thread or in a worker process.
* **Which module-level names are mutable state?**  Bindings whose value
  is an obviously-mutable container (literal, comprehension, or a
  ``dict``/``list``/``set``/``deque``/``defaultdict``/``Counter`` call).
* **Which functions mutate those names at run time?**  ``global``
  rebinds, subscript stores, and mutator-method calls on module-level
  names — the writes that diverge between a forked worker (inherits the
  parent's state) and a spawned one (re-imports fresh), breaking the
  start-method invariance the engine guarantees.

Everything is per-module and purely syntactic over the parsed AST; the
R012 rule combines these with the project import graph to limit itself
to modules actually reachable from worker entry points.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .project import ModuleInfo, qualified_call_name
from .rules import scoped_nodes

__all__ = [
    "ConcurrencySites",
    "concurrency_sites",
    "mutable_globals",
    "global_mutations",
]

#: Call origins that take a ``target=``/``initializer=`` entry point.
_SPAWNER_SUFFIXES = (
    ".Thread", ".Process", ".Timer", ".ProcessPoolExecutor", ".ThreadPoolExecutor",
    ".Pool",
)
#: Method names that submit a callable (first argument) to a pool.
_SUBMIT_METHODS = frozenset({"submit", "map", "imap", "imap_unordered",
                             "apply_async", "map_async", "starmap"})
#: Mutating container methods (shared with R003's notion of mutation).
_MUTATOR_METHODS = frozenset(
    {"add", "append", "appendleft", "clear", "discard", "extend",
     "extendleft", "insert", "pop", "popleft", "popitem", "remove",
     "setdefault", "update"}
)
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict",
     "bytearray"}
)


@dataclass
class ConcurrencySites:
    """Concurrency boundaries of one module."""

    #: Local names of functions passed as thread/process/pool entry
    #: points, with the context they were referenced from.
    entry_names: set[str] = field(default_factory=set)
    #: Local names of functions passed as pool ``initializer=`` —
    #: they run once per worker before any job, so the state they
    #: (re)set is per-process by construction.
    initializer_names: set[str] = field(default_factory=set)
    #: ``(call_node, context)`` of every spawner/submit call site.
    spawn_calls: list[tuple[ast.Call, str]] = field(default_factory=list)


def _callable_name(expr: ast.expr) -> str | None:
    """The local name a callable argument refers to (``f``, ``self.f``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        # ``self._worker_loop`` / ``mod.func`` — track the attr name; the
        # caller matches it against locally-defined functions/methods.
        return expr.attr
    return None


def concurrency_sites(module: ModuleInfo) -> ConcurrencySites:
    """Thread/process/pool entry points referenced in ``module``."""
    sites = ConcurrencySites()
    for node, context, _ in scoped_nodes(module.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = qualified_call_name(node.func, module.aliases)
        is_spawner = origin is not None and origin.endswith(_SPAWNER_SUFFIXES)
        if is_spawner:
            sites.spawn_calls.append((node, context))
            for kw in node.keywords:
                name = _callable_name(kw.value) if kw.value is not None else None
                if name is None:
                    continue
                if kw.arg == "target":
                    sites.entry_names.add(name)
                elif kw.arg == "initializer":
                    sites.initializer_names.add(name)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and node.args
        ):
            name = _callable_name(node.args[0])
            if name is not None:
                sites.spawn_calls.append((node, context))
                sites.entry_names.add(name)
    return sites


def _is_mutable_value(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in _MUTABLE_CTORS
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        return expr.func.attr in _MUTABLE_CTORS
    return False


def mutable_globals(module: ModuleInfo) -> dict[str, ast.stmt]:
    """Module-level names bound to obviously-mutable containers."""
    out: dict[str, ast.stmt] = {}
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt
    return out


def global_mutations(
    func: ast.FunctionDef | ast.AsyncFunctionDef, global_names: set[str]
) -> Iterator[tuple[str, ast.AST]]:
    """``(name, site)`` for each mutation of a module-level name in ``func``.

    Covers ``global x; x = ...`` rebinds, ``x[k] = v`` subscript stores,
    ``del x[k]``, and ``x.append(...)``-style mutator calls — but only
    for names that are *not* shadowed by a local binding or parameter.
    """
    declared_global: set[str] = set()
    local: set[str] = set()
    args = func.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        local.add(a.arg)
    if args.vararg:
        local.add(args.vararg.arg)
    if args.kwarg:
        local.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            continue
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _mutation_target(target, global_names, declared_global, local)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield from _mutation_target(node.target, global_names, declared_global, local)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                yield from _mutation_target(target, global_names, declared_global, local)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            name = node.func.value.id
            if name in global_names and name not in local:
                yield name, node


def _mutation_target(
    target: ast.expr,
    global_names: set[str],
    declared_global: set[str],
    local: set[str],
) -> Iterator[tuple[str, ast.AST]]:
    if isinstance(target, ast.Name):
        # A bare rebind only touches the module when declared global.
        if target.id in global_names and target.id in declared_global:
            yield target.id, target
    elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        name = target.value.id
        if name in global_names and name not in local:
            yield name, target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _mutation_target(elt, global_names, declared_global, local)
