"""Per-function control-flow graphs with exceptional edges.

The flow-sensitive rules (R011-R013, R015) need answers that a lexical AST
walk cannot give: *does this acquisition reach a release on every path,
including the path where a statement in between raises?*  This module
builds a small, precise-enough CFG for one function:

* **One statement per block.**  Functions are short; trading block
  fusion for per-statement dataflow states keeps the engine trivial and
  makes exceptional edges exact (the exception fires *at* a statement,
  between its predecessors' effects and its own).
* **Exceptional edges are first-class.**  Every statement that can
  raise gets an ``exc`` edge to the innermost handler, finally block, or
  the synthetic ``raise_exit`` — so "all CFG paths" really includes the
  path where ``segment.graph()`` throws between ``attach`` and ``close``.
* **`with` is desugared, not approximated.**  Each ``with`` item gets an
  *enter* block and two *exit* blocks (normal and exceptional), so the
  dataflow sees the acquire and the guaranteed release exactly where
  they happen; the same mechanism routes ``return``/``break``/
  ``continue`` through enclosing ``finally`` bodies (emitted as fresh
  copies per abrupt exit, which is what actually executes).

Nested function/class definitions are treated as opaque single
statements: a closure's body does not run where it is defined, and each
function gets its own CFG via :func:`function_cfgs`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "CFG", "Block", "build_cfg", "can_raise", "expr_can_raise", "expr_token",
    "function_cfgs", "head_parts",
]

#: Block kinds.  ``stmt`` blocks carry a real AST statement; ``test``
#: blocks carry the condition expression of an if/while; ``assume-*``
#: blocks carry an if-test on the branch where it held (or failed), so
#: analyses can filter on `x is None`-style guards; ``with-enter`` and
#: ``with-exit`` carry an :class:`ast.withitem`; the rest are synthetic
#: and empty.
ENTRY, EXIT, RAISE_EXIT, STMT, TEST, WITH_ENTER, WITH_EXIT, JOIN = (
    "entry", "exit", "raise", "stmt", "test", "with-enter", "with-exit", "join",
)
ASSUME_TRUE, ASSUME_FALSE = "assume-true", "assume-false"


@dataclass
class Block:
    """One CFG node: a single statement (or synthetic marker)."""

    id: int
    kind: str
    node: ast.AST | None = None
    #: Normal-flow successors.
    succs: list[int] = field(default_factory=list)
    #: Exceptional successors: taken when ``node`` raises mid-execution.
    excs: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = getattr(self.node, "lineno", "?")
        return f"Block({self.id}, {self.kind}, line={where})"


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.blocks: dict[int, Block] = {}
        self.entry = self._new(ENTRY).id
        self.exit = self._new(EXIT).id
        self.raise_exit = self._new(RAISE_EXIT).id

    def _new(self, kind: str, node: ast.AST | None = None) -> Block:
        block = Block(id=len(self.blocks), kind=kind, node=node)
        self.blocks[block.id] = block
        return block

    def successors(self, block_id: int, exceptional: bool = True) -> list[int]:
        block = self.blocks[block_id]
        return block.succs + (block.excs if exceptional else [])

    def statements(self) -> Iterator[Block]:
        """Blocks that carry a real statement (kind ``stmt``)."""
        for block in self.blocks.values():
            if block.kind == STMT:
                yield block

    def __len__(self) -> int:
        return len(self.blocks)


def expr_token(node: ast.expr) -> str | None:
    """A stable textual token for a simple lvalue-ish expression.

    ``self._lock`` -> ``"self._lock"``, ``lock`` -> ``"lock"``,
    ``a.b.c`` -> ``"a.b.c"``.  Returns ``None`` for anything that is not
    a dotted name chain (calls, subscripts), which the lock/resource
    analyses treat as untrackable.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def head_parts(stmt: ast.AST) -> tuple[ast.AST, ...]:
    """The parts of a ``stmt`` block's node that run in that block.

    A ``for`` head binds its target from its iterable and a ``match`` head
    evaluates its subject; their bodies are blocks of their own, entered
    with their own lock and resource state.  Any other statement runs
    whole.
    """
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return (stmt.target, stmt.iter)
    if isinstance(stmt, ast.Match):
        return (stmt.subject,)
    return (stmt,)


# Statements that cannot raise on their own (their sub-expressions might;
# checked separately).
_SAFE_STMTS = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)
# Expression nodes that can raise at run time.  Name loads can raise
# NameError in principle; treating them as safe keeps straight-line
# assignment chains quiet without losing the edges that matter (calls,
# attribute/subscript access, arithmetic on arbitrary objects).
# ``Compare`` is handled separately: identity tests (``x is None``)
# cannot raise, while rich comparisons dispatch to arbitrary ``__eq__``.
_RAISING_EXPRS = (
    ast.Call, ast.Attribute, ast.Subscript, ast.BinOp, ast.Await,
    ast.Yield, ast.YieldFrom, ast.Starred, ast.FormattedValue,
)


def expr_can_raise(node: ast.AST) -> bool:
    """Conservatively: can evaluating this expression raise?"""
    for sub in ast.walk(node):
        if isinstance(sub, _RAISING_EXPRS):
            # A store/delete target (`a.b = x`, `d[k] = x`) raising means
            # a broken __setattr__/__setitem__; treating those as raising
            # would demand try/finally around every ownership handoff.
            # The value/slice children are walked on their own.
            if isinstance(sub, (ast.Attribute, ast.Subscript)) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                continue
            return True
        if isinstance(sub, ast.Compare) and any(
            not isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops
        ):
            return True
    return False


def can_raise(stmt: ast.stmt) -> bool:
    """Conservatively: can executing this statement raise an exception?"""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, _SAFE_STMTS):
        return False
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Defining a function can only raise via default/decorator
        # evaluation; the body does not execute here.
        args = getattr(stmt, "args", None)
        probe: list[ast.AST] = [
            *getattr(stmt, "decorator_list", []),
            *(getattr(args, "defaults", None) or []),
            *(getattr(args, "kw_defaults", None) or []),
        ]
        return any(expr_can_raise(node) for node in probe if node is not None)
    for node in ast.walk(stmt):
        if isinstance(node, _RAISING_EXPRS):
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                continue
            return True
        if isinstance(node, ast.Compare) and any(
            not isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            break  # nested bodies do not execute here
    return False


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Does this handler catch (at least) every ``Exception``?"""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        name = t.attr if isinstance(t, ast.Attribute) else (
            t.id if isinstance(t, ast.Name) else None
        )
        if name in ("Exception", "BaseException"):
            return True
    return False


class _Frame:
    """One entry of the abrupt-exit routing stack.

    ``kind`` is ``"finally"`` (carries the finally suite, re-emitted per
    abrupt exit) or ``"with"`` (carries the with items, whose exit blocks
    are emitted per abrupt exit so releases stay on every path).
    """

    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload) -> None:
        self.kind = kind
        self.payload = payload


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cfg = CFG(func)
        #: Innermost target for an in-flight exception.
        self.exc_target = self.cfg.raise_exit
        #: Stack of (break_target, continue_target, frames_depth).
        self.loops: list[tuple[int, int, int]] = []
        #: Enclosing finally/with frames, innermost last.
        self.frames: list[_Frame] = []

    # -- low-level helpers --------------------------------------------------------

    def _block(self, kind: str, node: ast.AST | None = None) -> Block:
        return self.cfg._new(kind, node)

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.cfg.blocks[src].succs:
            self.cfg.blocks[src].succs.append(dst)

    def _exc_edge(self, src: int, dst: int) -> None:
        if dst not in self.cfg.blocks[src].excs:
            self.cfg.blocks[src].excs.append(dst)

    # -- abrupt-exit routing ------------------------------------------------------

    def _unwind(self, from_block: int, depth: int) -> int:
        """Emit copies of the frames above ``depth`` (innermost first).

        Returns the block the final edge should leave from — the caller
        wires it to the real target (exit, loop head, ...).  This mirrors
        what CPython does: an abrupt exit runs every enclosing ``finally``
        suite and ``with`` exit on its way out.
        """
        current = from_block
        for frame in reversed(self.frames[depth:]):
            if frame.kind == "with":
                for item in reversed(frame.payload):
                    exit_block = self._block(WITH_EXIT, item)
                    self._edge(current, exit_block.id)
                    current = exit_block.id
            else:  # finally suite, re-emitted
                current = self._emit_suite_copy(frame.payload, current)
        return current

    def _emit_suite_copy(self, suite: list[ast.stmt], pred: int) -> int:
        """Emit a fresh copy of a finally suite after ``pred``; returns tail."""
        saved_exc = self.exc_target
        current: int | None = pred
        for stmt in suite:
            current = self._visit(stmt, current)
            if current is None:
                break
        self.exc_target = saved_exc
        # A finally suite that itself diverges (raise/return) swallows the
        # abrupt exit; model by returning a dead join block.
        if current is None:
            return self._block(JOIN).id
        return current

    # -- statement dispatch -------------------------------------------------------

    def _visit_suite(self, suite: list[ast.stmt], pred: int | None) -> int | None:
        current = pred
        for stmt in suite:
            if current is None:
                break  # unreachable code after return/raise/...
            current = self._visit(stmt, current)
        return current

    def _visit(self, stmt: ast.stmt, pred: int) -> int | None:
        """Wire ``stmt`` after block ``pred``; returns the fall-through block."""
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, pred)
        if isinstance(stmt, (ast.While,)):
            return self._visit_while(stmt, pred)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, pred)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, pred)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._visit_with(stmt, pred)
        if isinstance(stmt, ast.Match):
            return self._visit_match(stmt, pred)
        return self._visit_simple(stmt, pred)

    def _visit_simple(self, stmt: ast.stmt, pred: int) -> int | None:
        block = self._block(STMT, stmt)
        self._edge(pred, block.id)
        if can_raise(stmt):
            self._exc_edge(block.id, self.exc_target)
        if isinstance(stmt, ast.Return):
            tail = self._unwind(block.id, 0)
            self._edge(tail, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            # ``raise`` transfers to the handler unconditionally; the
            # exc edge above already points there.
            self.cfg.blocks[block.id].succs = []
            self._exc_edge(block.id, self.exc_target)
            return None
        if isinstance(stmt, ast.Break):
            if self.loops:
                target, _, depth = self.loops[-1]
                tail = self._unwind(block.id, depth)
                self._edge(tail, target)
            return None
        if isinstance(stmt, ast.Continue):
            if self.loops:
                _, target, depth = self.loops[-1]
                tail = self._unwind(block.id, depth)
                self._edge(tail, target)
            return None
        return block.id

    def _visit_if(self, stmt: ast.If, pred: int) -> int | None:
        test = self._block(TEST, stmt.test)
        self._edge(pred, test.id)
        if expr_can_raise(stmt.test):
            self._exc_edge(test.id, self.exc_target)
        assume_true = self._block(ASSUME_TRUE, stmt.test)
        self._edge(test.id, assume_true.id)
        assume_false = self._block(ASSUME_FALSE, stmt.test)
        self._edge(test.id, assume_false.id)
        then_tail = self._visit_suite(stmt.body, assume_true.id)
        else_tail = (
            self._visit_suite(stmt.orelse, assume_false.id)
            if stmt.orelse
            else assume_false.id
        )
        if then_tail is None and else_tail is None:
            return None
        join = self._block(JOIN)
        for tail in (then_tail, else_tail):
            if tail is not None:
                self._edge(tail, join.id)
        return join.id

    def _visit_while(self, stmt: ast.While, pred: int) -> int | None:
        head = self._block(TEST, stmt.test)
        self._edge(pred, head.id)
        if expr_can_raise(stmt.test):
            self._exc_edge(head.id, self.exc_target)
        after = self._block(JOIN)
        self.loops.append((after.id, head.id, len(self.frames)))
        body_tail = self._visit_suite(stmt.body, head.id)
        self.loops.pop()
        if body_tail is not None:
            self._edge(body_tail, head.id)
        else_tail = self._visit_suite(stmt.orelse, head.id) if stmt.orelse else head.id
        if else_tail is not None:
            self._edge(else_tail, after.id)
        return after.id

    def _visit_for(self, stmt: ast.For | ast.AsyncFor, pred: int) -> int | None:
        # The iterable evaluates once; the head re-binds the target each
        # iteration (and is where StopIteration ends the loop).
        head = self._block(STMT, stmt)
        self._edge(pred, head.id)
        self._exc_edge(head.id, self.exc_target)
        after = self._block(JOIN)
        self.loops.append((after.id, head.id, len(self.frames)))
        body_tail = self._visit_suite(stmt.body, head.id)
        self.loops.pop()
        if body_tail is not None:
            self._edge(body_tail, head.id)
        else_tail = self._visit_suite(stmt.orelse, head.id) if stmt.orelse else head.id
        if else_tail is not None:
            self._edge(else_tail, after.id)
        return after.id

    def _visit_with(self, stmt: ast.With | ast.AsyncWith, pred: int) -> int | None:
        current = pred
        for item in stmt.items:
            enter = self._block(WITH_ENTER, item)
            self._edge(current, enter.id)
            self._exc_edge(enter.id, self.exc_target)
            current = enter.id
        # Inside the body, an exception runs the exits before propagating.
        saved_exc = self.exc_target
        exc_chain = saved_exc
        for item in stmt.items:
            exc_exit = self._block(WITH_EXIT, item)
            self._edge(exc_exit.id, exc_chain)
            exc_chain = exc_exit.id
        self.exc_target = exc_chain
        self.frames.append(_Frame("with", list(stmt.items)))
        body_tail = self._visit_suite(stmt.body, current)
        self.frames.pop()
        self.exc_target = saved_exc
        if body_tail is None:
            return None
        current = body_tail
        for item in reversed(stmt.items):
            normal_exit = self._block(WITH_EXIT, item)
            self._edge(current, normal_exit.id)
            current = normal_exit.id
        return current

    def _visit_try(self, stmt: ast.Try, pred: int) -> int | None:
        has_finally = bool(stmt.finalbody)
        saved_exc = self.exc_target

        # Exceptional path through the finally suite, shared by every
        # raise site in the try/handlers.
        if has_finally:
            exc_finally_entry = self._block(JOIN)
            tail = self._emit_suite_copy(stmt.finalbody, exc_finally_entry.id)
            self._edge(tail, saved_exc)
            outer_exc = exc_finally_entry.id
        else:
            outer_exc = saved_exc

        # Handler dispatch: a raising statement in the try body lands
        # here; each handler (or, unhandled, the outer target) follows.
        if stmt.handlers:
            dispatch = self._block(JOIN)
            handler_exc = outer_exc
        else:
            dispatch = None
            handler_exc = outer_exc
        catch_all = any(_is_catch_all(h) for h in stmt.handlers)

        if has_finally:
            self.frames.append(_Frame("finally", list(stmt.finalbody)))
        self.exc_target = dispatch.id if dispatch is not None else handler_exc
        body_tail = self._visit_suite(stmt.body, pred)
        self.exc_target = saved_exc

        tails: list[int] = []
        if stmt.handlers:
            self.exc_target = handler_exc
            for handler in stmt.handlers:
                h_block = self._block(STMT, handler)
                self._edge(dispatch.id, h_block.id)
                h_tail = self._visit_suite(handler.body, h_block.id)
                if h_tail is not None:
                    tails.append(h_tail)
            # No handler matched: propagate outward.  A catch-all
            # (`except:` / `except Exception`) leaves only the
            # BaseException sliver, which cleanup rules ignore — an
            # analysis flagging `except Exception: release(); raise` as
            # leaky would condemn every correct cleanup idiom.
            if not catch_all:
                self._edge(dispatch.id, handler_exc)
            self.exc_target = saved_exc

        # else-clause runs only after a clean try body.
        if body_tail is not None and stmt.orelse:
            self.exc_target = dispatch.id if dispatch is not None else handler_exc
            body_tail = self._visit_suite(stmt.orelse, body_tail)
            self.exc_target = saved_exc
        if body_tail is not None:
            tails.append(body_tail)

        if has_finally:
            self.frames.pop()
        if not tails:
            return None
        join = self._block(JOIN)
        for tail in tails:
            self._edge(tail, join.id)
        if has_finally:
            return self._emit_suite_copy(stmt.finalbody, join.id)
        return join.id

    def _visit_match(self, stmt: ast.Match, pred: int) -> int | None:
        subject = self._block(STMT, stmt)
        self._edge(pred, subject.id)
        self._exc_edge(subject.id, self.exc_target)
        join = self._block(JOIN)
        for case in stmt.cases:
            tail = self._visit_suite(case.body, subject.id)
            if tail is not None:
                self._edge(tail, join.id)
        # No case may match at all.
        self._edge(subject.id, join.id)
        return join.id

    # -- entry point --------------------------------------------------------------

    def build(self) -> CFG:
        tail = self._visit_suite(self.cfg.func.body, self.cfg.entry)
        if tail is not None:
            self._edge(tail, self.cfg.exit)
        return self.cfg


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """The control-flow graph of one function body."""
    return _Builder(func).build()


def function_cfgs(
    tree: ast.AST, prefix: str = ""
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef, CFG]]:
    """Yield ``(dotted_context, func, cfg)`` for every function under ``tree``.

    The context matches the ``scoped_nodes`` convention used by findings:
    ``Class.method`` for methods, ``outer.inner`` for nested functions.
    Functions are found anywhere — inside classes, branches, handlers.
    """
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}" if prefix else child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child, build_cfg(child)
            yield from function_cfgs(child, name)
        else:
            yield from function_cfgs(child, prefix)
