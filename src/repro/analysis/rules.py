"""Rule engine core: findings, the rule base class, and AST walk helpers.

A rule is a stateless object with an ``id`` (``R00x``), a severity, and a
``check`` method that yields :class:`Finding` objects for one module.
The runner handles scoping and allow-zones (:mod:`repro.analysis.config`),
so ``check`` only ever sees modules the rule should scan.

Findings carry a ``context`` — the dotted path of the enclosing
class/function — and are matched against the baseline by
``(rule, path, context)``, which survives line-number drift from
unrelated edits (the failure mode that makes line-keyed baselines rot).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator

from .project import ModuleInfo, ProjectModel

__all__ = [
    "Finding",
    "Rule",
    "Severity",
    "scoped_nodes",
    "set_valued_names",
]


class Severity:
    """Finding severities, ordered; map 1:1 onto SARIF levels."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"
    ORDER = (ERROR, WARNING, NOTE)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # package-relative posix path
    line: int
    col: int
    rule: str = field(compare=False)
    severity: str = field(compare=False)
    message: str = field(compare=False)
    #: Dotted enclosing scope ("" at module level), e.g. "Graph.add_edge".
    context: str = field(compare=False, default="")

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: stable across line-number drift."""
        return (self.rule, self.path, self.context)

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "context": self.context,
            "message": self.message,
        }


class Rule:
    """Base class; subclasses set the class attributes and implement check."""

    id: str = ""
    name: str = ""
    severity: str = Severity.ERROR
    description: str = ""

    def check(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str, context: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            context=context,
        )


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)


def scoped_nodes(tree: ast.Module) -> Iterator[tuple[ast.AST, str, int]]:
    """Yield ``(node, context, loop_depth)`` for every node in ``tree``.

    ``context`` is the dotted enclosing class/function path ("" at module
    level); ``loop_depth`` counts *lexically* enclosing ``for``/``while``
    statements, resetting inside nested function definitions (a closure's
    body does not execute once per iteration of the loop that defines it).
    """

    def visit(node: ast.AST, context: str, depth: int) -> Iterator[tuple[ast.AST, str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                inner = f"{context}.{child.name}" if context else child.name
                yield child, context, depth
                yield from visit(
                    child, inner, 0 if not isinstance(child, ast.ClassDef) else depth
                )
            elif isinstance(child, _LOOP_NODES):
                yield child, context, depth
                # A for-loop's iterable evaluates once (old depth); a
                # while-loop's test re-evaluates every iteration, and the
                # body of either (plus else, conservatively) is depth + 1.
                if isinstance(child, ast.While):
                    headers: list[tuple[ast.AST, int]] = [(child.test, depth + 1)]
                else:
                    headers = [(child.target, depth), (child.iter, depth)]
                for header, header_depth in headers:
                    yield header, context, header_depth
                    yield from visit(header, context, header_depth)
                for stmt in child.body + child.orelse:
                    yield stmt, context, depth + 1
                    yield from visit(stmt, context, depth + 1)
            else:
                yield child, context, depth
                yield from visit(child, context, depth)

    yield from visit(tree, "", 0)


_SET_CALLS = {"set", "frozenset"}


def set_valued_names(func: ast.AST) -> set[str]:
    """Local names bound (anywhere in ``func``) to an obvious set value.

    Tracks ``x = {...}``, ``x = set(...)``/``frozenset(...)`` and set
    comprehensions; a dict's ``keys()`` view keeps insertion order, so it
    is not one.  Purely lexical — a name rebound to a list later is still
    reported, which is the conservative direction for a determinism lint.
    """
    names: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        if _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _SET_CALLS:
            return True
    return False
