"""Forward dataflow over the per-function CFG.

A tiny worklist engine plus the two analyses the flow rules use:

* :class:`LockSetAnalysis` — *must*-held lock tokens at each block
  (join = intersection), fed by ``with lock:`` desugarings and explicit
  ``acquire``/``release`` calls.  R011 asks it "which locks are held at
  this attribute write?".
* :class:`ResourceAnalysis` — *may*-held resource acquisition sites
  (join = union), with release and ownership-escape kills.  R013 asks
  it "can this acquisition reach function exit — normal or raising —
  still held?".

States are immutable mappings; transfer functions are per-block (one
statement per block, so there is no intra-block bookkeeping).  On
exceptional edges the engine propagates ``join(in, out)`` — the raise
may fire before or after the statement's effect, so both must flow.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Iterator

from .cfg import (
    ASSUME_FALSE,
    ASSUME_TRUE,
    CFG,
    STMT,
    TEST,
    WITH_ENTER,
    WITH_EXIT,
    Block,
    expr_token,
    head_parts,
)

__all__ = [
    "LockSetAnalysis",
    "ResourceAnalysis",
    "ResourceSpec",
    "run_forward",
]


class ForwardAnalysis:
    """Interface: a lattice plus a per-block transfer function."""

    def initial(self) -> Any:  # state at the entry block
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, block: Block, state: Any) -> Any:
        raise NotImplementedError

    def exc_state(self, block: Block, in_state: Any, out_state: Any) -> Any:
        """State carried on this block's exceptional edges.

        The default is ``join(in, out)``: the raise may fire before or
        after the statement's effect, so both must flow.  Analyses with
        effects that should (or should not) commit when the statement
        raises override this per block.
        """
        return self.join(in_state, out_state)


def run_forward(cfg: CFG, analysis: ForwardAnalysis) -> dict[int, Any]:
    """Fixed-point in-states for every block; unreachable blocks map to None.

    ``None`` is the bottom element (unreachable); ``analysis.join`` never
    sees it.  Out-states are recomputed on demand via ``transfer`` —
    callers usually only need the in-state at the statement they inspect.
    """
    in_states: dict[int, Any] = {bid: None for bid in cfg.blocks}
    in_states[cfg.entry] = analysis.initial()
    worklist = [cfg.entry]
    while worklist:
        bid = worklist.pop()
        state = in_states[bid]
        if state is None:
            continue
        block = cfg.blocks[bid]
        out = analysis.transfer(block, state)
        for succ, flowed in _flow_edges(block, state, out, analysis):
            merged = flowed if in_states[succ] is None else analysis.join(
                in_states[succ], flowed
            )
            if merged != in_states[succ]:
                in_states[succ] = merged
                worklist.append(succ)
    return in_states


def _flow_edges(
    block: Block, in_state: Any, out_state: Any, analysis: ForwardAnalysis
) -> Iterator[tuple[int, Any]]:
    """(successor, state) pairs: normal edges carry out, exc edges carry both."""
    for succ in block.succs:
        yield succ, out_state
    if block.excs:
        partial = analysis.exc_state(block, in_state, out_state)
        for succ in block.excs:
            yield succ, partial


# -- lock sets ---------------------------------------------------------------------

#: Constructors whose instances guard critical sections via ``with`` /
#: ``acquire``.  Condition wraps a lock, so ``with self._dispatch:``
#: counts as holding that token.
LOCK_FACTORY_SUFFIXES = (
    ".Lock", ".RLock", ".Condition", ".Semaphore", ".BoundedSemaphore",
)


def is_lock_factory(origin: str | None) -> bool:
    return origin is not None and (
        origin.endswith(LOCK_FACTORY_SUFFIXES)
        or origin in {s[1:] for s in LOCK_FACTORY_SUFFIXES}
    )


class LockSetAnalysis(ForwardAnalysis):
    """Must-held lock tokens (``"self._lock"``-style strings).

    ``known`` restricts tracking to tokens known to be locks; when empty
    every ``with``-entered dotted name is tracked (fixture-friendly).
    """

    def __init__(self, known: frozenset[str] | None = None) -> None:
        self.known = known

    def _tracks(self, token: str | None) -> bool:
        if token is None:
            return False
        return self.known is None or token in self.known

    def initial(self) -> frozenset[str]:
        return frozenset()

    def join(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a & b

    def transfer(self, block: Block, state: frozenset[str]) -> frozenset[str]:
        if block.kind == WITH_ENTER:
            token = expr_token(block.node.context_expr)
            if self._tracks(token):
                return state | {token}
        elif block.kind == WITH_EXIT:
            token = expr_token(block.node.context_expr)
            if token is not None:
                return state - {token}
        elif block.kind == STMT:
            for call in _calls(*head_parts(block.node)):
                if isinstance(call.func, ast.Attribute):
                    token = expr_token(call.func.value)
                    if call.func.attr == "acquire" and self._tracks(token):
                        state = state | {token}
                    elif call.func.attr == "release" and token is not None:
                        state = state - {token}
        return state


def _walk(*nodes: ast.AST) -> Iterator[ast.AST]:
    for node in nodes:
        yield from ast.walk(node)


def _calls(*nodes: ast.AST) -> Iterator[ast.Call]:
    for sub in _walk(*nodes):
        if isinstance(sub, ast.Call):
            yield sub


# -- resource lifetimes ------------------------------------------------------------


class ResourceSpec:
    """What counts as acquiring and releasing one kind of resource.

    ``matches(call, resolve)`` decides whether a call expression acquires
    the resource (``resolve`` maps the call's func to a dotted origin
    through the module's import aliases); ``releases`` are the method
    names that end the obligation.
    """

    def __init__(
        self,
        kind: str,
        matches: Callable[[ast.Call, Callable[[ast.expr], str | None]], bool],
        releases: frozenset[str],
    ) -> None:
        self.kind = kind
        self.matches = matches
        self.releases = releases


class _Acquisition:
    """One acquisition site within a function."""

    __slots__ = ("site", "name", "spec", "node")

    def __init__(self, site: int, name: str, spec: ResourceSpec, node: ast.AST) -> None:
        self.site = site
        self.name = name
        self.spec = spec
        self.node = node


class ResourceAnalysis(ForwardAnalysis):
    """May-held acquisition sites (frozenset of site ids).

    A site leaves the state when its variable is released (any method in
    the spec's release set), re-bound by ``with x:``, or *escapes* —
    returned, yielded, aliased, stored into an attribute/subscript, or
    passed as an argument to another call.  Escape transfers ownership:
    whoever received the object is now responsible, and flagging here
    would be noise.
    """

    def __init__(
        self,
        cfg: CFG,
        specs: list[ResourceSpec],
        resolve: Callable[[ast.expr], str | None],
    ) -> None:
        self.cfg = cfg
        self.specs = specs
        self.resolve = resolve
        self.acquisitions: dict[int, _Acquisition] = {}
        self._by_block: dict[int, _Acquisition] = {}
        self._index()

    def _index(self) -> None:
        for block in self.cfg.statements():
            stmt = block.node
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            for spec in self.specs:
                if spec.matches(value, self.resolve):
                    acq = _Acquisition(len(self.acquisitions), target.id, spec, value)
                    self.acquisitions[acq.site] = acq
                    self._by_block[block.id] = acq
                    break

    def initial(self) -> frozenset[int]:
        return frozenset()

    def join(self, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return a | b

    def _sites_named(self, state: frozenset[int], name: str) -> frozenset[int]:
        return frozenset(
            s for s in state if self.acquisitions[s].name == name
        )

    def transfer(self, block: Block, state: frozenset[int]) -> frozenset[int]:
        acq = self._by_block.get(block.id)
        if acq is not None:
            # Re-binding the name drops tracking of older sites under it
            # (they are reported separately if they leaked before this).
            return (state - self._sites_named(state, acq.name)) | {acq.site}
        node = block.node
        if node is None:
            return state
        if block.kind == WITH_ENTER:
            item = node
            token = expr_token(item.context_expr)
            if token is not None:
                state = state - self._sites_named(state, token)
            return state
        if block.kind in (ASSUME_TRUE, ASSUME_FALSE):
            # On the branch where `x is None` held (or `x is not None`
            # failed), no acquisition is bound to x — drop its sites, so
            # the `if cached is None: ... acquire ...` idiom doesn't drag
            # a phantom handle around the enclosing loop.
            name = _none_guard_name(node, positive=block.kind == ASSUME_TRUE)
            if name is not None:
                state = state - self._sites_named(state, name)
            return state
        if block.kind not in (STMT, TEST):
            return state
        # A plain rebind (`x = None`, `x = other`) drops tracking: the
        # handle is gone from this frame, and sites that leaked before
        # the rebind are reported by their own paths.
        if isinstance(node, ast.Assign) and block.id not in self._by_block:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    state = state - self._sites_named(state, target.id)
        # Releases: x.close() / x.unlink() / spec-specific.  A loop
        # head runs only its target and iterable; the body's releases
        # happen in the body's own blocks, on the iterations that run.
        for call in _calls(*head_parts(node)):
            if isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, ast.Name
            ):
                receiver = call.func.value.id
                for site in self._sites_named(state, receiver):
                    if call.func.attr in self.acquisitions[site].spec.releases:
                        state = state - {site}
        # Escapes.
        for name in _escaping_names(node):
            state = state - self._sites_named(state, name)
        return state

    def exc_state(
        self, block: Block, in_state: frozenset[int], out_state: frozenset[int]
    ) -> frozenset[int]:
        """Exceptional-edge state: effects commit, acquisitions do not.

        If the acquiring call itself raises, nothing was acquired — carry
        the in-state.  For every other statement carry the out-state:
        a release that raises still ended the obligation (no static fix
        can help a failing ``close()``), and demanding that ownership
        handoffs (``self._cache[k] = x``) be individually guarded against
        impossible raises would flag every correct try/finally.  What
        remains flagged is exactly the real hazard: a statement that can
        raise between acquire and release/handoff without performing
        either.
        """
        if block.id in self._by_block:
            return in_state
        return out_state


def _none_guard_name(test: ast.AST, positive: bool) -> str | None:
    """The name ``x`` when this branch proved ``x`` is ``None``.

    ``x is None`` on the true branch, ``x is not None`` on the false
    branch.  Anything more complex returns ``None`` (no filtering).
    """
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return None
    op = test.ops[0]
    if positive and isinstance(op, ast.Is):
        return test.left.id
    if not positive and isinstance(op, ast.IsNot):
        return test.left.id
    return None


def _escaping_names(stmt: ast.AST) -> Iterator[str]:
    """Names whose bound object escapes this statement's scope of care."""
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        yield from _transfer_names(stmt.value)
    if isinstance(stmt, ast.Assign):
        # Aliasing (y = x) and container/attribute stores (self.a = x,
        # d[k] = x) both hand the object to someone else, as does packing
        # into a container display (t = (x, y)).  A plain
        # ``x = x.method()`` does not escape x through the receiver, and
        # ``self.k = x.name`` hands off a *derived value*, not x.
        escapes_lhs = any(
            not isinstance(t, ast.Name) for t in stmt.targets
        )
        if escapes_lhs or isinstance(stmt.value, ast.Name):
            yield from _transfer_names(stmt.value)
        else:
            yield from _display_names(stmt.value)
    # A loop head hands over nothing its body passes on.
    roots = (stmt.value,) if isinstance(stmt, ast.Assign) else head_parts(stmt)
    for sub in _walk(*roots):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
            yield from _transfer_names(sub.value)
        elif isinstance(sub, ast.Call):
            # Arguments escape; the receiver of a method call does not.
            for arg in sub.args:
                yield from _transfer_names(arg)
            for kw in sub.keywords:
                yield from _transfer_names(kw.value)


def _transfer_names(expr: ast.expr) -> Iterator[str]:
    """Names whose *object* is handed over by this expression.

    Ownership transfers through the object itself — a direct name or a
    name packed into a container display.  ``seg.name`` or ``len(seg.buf)``
    passes a derived value; the caller still owns (and must release) the
    resource, so attribute/subscript reads do not count.
    """
    if isinstance(expr, ast.Name):
        yield expr.id
    else:
        yield from _display_names(expr)


def _display_names(expr: ast.expr) -> Iterator[str]:
    """Names stored directly into a tuple/list/set/dict display."""
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            if isinstance(elt, ast.Name):
                yield elt.id
            else:
                yield from _display_names(elt)
    elif isinstance(expr, ast.Dict):
        for value in expr.values:
            if isinstance(value, ast.Name):
                yield value.id
            elif value is not None:
                yield from _display_names(value)
