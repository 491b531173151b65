"""Unit tests for the CFG builder and the forward dataflow engine.

These pin the structural guarantees the flow rules lean on: branches
join, ``with`` scopes releases, early returns and always-raising bodies
shape reachability, loops reach a fixpoint, and try/finally routes both
the return and the raising path through the finally suite.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import (
    ASSUME_FALSE,
    ASSUME_TRUE,
    build_cfg,
    can_raise,
    expr_token,
    function_cfgs,
)
from repro.analysis.dataflow import (
    LockSetAnalysis,
    ResourceAnalysis,
    ResourceSpec,
    run_forward,
)


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(func)


def stmt_block(cfg, needle: str):
    """The unique statement block whose source contains ``needle``."""
    hits = [b for b in cfg.statements() if needle in ast.unparse(b.node)]
    assert len(hits) == 1, f"{needle!r} matched {len(hits)} blocks"
    return hits[0]


OPEN_SPEC = ResourceSpec(
    kind="file",
    matches=lambda call, resolve: resolve(call.func) == "open",
    releases=frozenset({"close"}),
)


def _resolve(expr):
    return expr.id if isinstance(expr, ast.Name) else None


def resource_states(source: str):
    cfg = cfg_of(source)
    analysis = ResourceAnalysis(cfg, [OPEN_SPEC], _resolve)
    return cfg, analysis, run_forward(cfg, analysis)


class TestLockSets:
    def test_one_branch_acquire_is_not_held_at_the_join(self):
        cfg = cfg_of(
            """
            def f(self, flag):
                if flag:
                    self._lock.acquire()
                self._count = 1
            """
        )
        states = run_forward(cfg, LockSetAnalysis(known=frozenset({"self._lock"})))
        assert states[stmt_block(cfg, "self._count = 1").id] == frozenset()

    def test_both_branch_acquire_survives_the_join(self):
        cfg = cfg_of(
            """
            def f(self, flag):
                if flag:
                    self._lock.acquire()
                else:
                    self._lock.acquire()
                self._count = 1
            """
        )
        states = run_forward(cfg, LockSetAnalysis(known=frozenset({"self._lock"})))
        assert states[stmt_block(cfg, "self._count = 1").id] == {"self._lock"}

    def test_with_statement_scopes_the_lock(self):
        cfg = cfg_of(
            """
            def f(self):
                with self._lock:
                    self._count = 1
                self._count = 2
            """
        )
        states = run_forward(cfg, LockSetAnalysis(known=frozenset({"self._lock"})))
        assert states[stmt_block(cfg, "self._count = 1").id] == {"self._lock"}
        assert states[stmt_block(cfg, "self._count = 2").id] == frozenset()

    def test_with_exit_releases_on_the_raising_path_too(self):
        cfg = cfg_of(
            """
            def f(self, job):
                with self._lock:
                    job.run()
            """
        )
        states = run_forward(cfg, LockSetAnalysis(known=frozenset({"self._lock"})))
        # job.run() may raise; the with machinery still releases before
        # the exception leaves the function.
        assert states[cfg.raise_exit] == frozenset()

    def test_loop_head_runs_only_its_target_and_iterable(self):
        # The body's acquire is a block of its own.  Applied at the head
        # too, it would hold the lock after a loop that may run no times.
        cfg = cfg_of(
            """
            def f(self, items):
                for item in items:
                    self._lock.acquire()
                    self._items.append(item)
                self._lock.release()
            """
        )
        states = run_forward(cfg, LockSetAnalysis(known=frozenset({"self._lock"})))
        (append,) = (
            b for b in cfg.statements() if ast.unparse(b.node) == "self._items.append(item)"
        )
        assert states[append.id] == {"self._lock"}
        assert states[stmt_block(cfg, "self._lock.release()").id] == frozenset()


class TestReachability:
    def test_if_grows_assume_blocks(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    return 1
                return 2
            """
        )
        kinds = {b.kind for b in cfg.blocks.values()}
        assert ASSUME_TRUE in kinds and ASSUME_FALSE in kinds

    def test_always_raising_body_never_reaches_the_normal_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                raise ValueError(x)
            """
        )
        states = run_forward(cfg, LockSetAnalysis())
        assert states[cfg.exit] is None  # unreachable
        assert states[cfg.raise_exit] is not None

    def test_code_after_return_is_pruned(self):
        cfg = cfg_of(
            """
            def f(x):
                return x
                x = 1
            """
        )
        assert not [b for b in cfg.statements() if "x = 1" in ast.unparse(b.node)]

    def test_early_return_still_reaches_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                if x is None:
                    return 0
                return x
            """
        )
        states = run_forward(cfg, LockSetAnalysis())
        assert states[cfg.exit] is not None


class TestResourceFlow:
    def test_straight_line_close_is_clean_on_the_normal_path_only(self):
        cfg, analysis, states = resource_states(
            """
            def f(p):
                fh = open(p)
                data = fh.read()
                fh.close()
                return data
            """
        )
        assert len(analysis.acquisitions) == 1
        # Normal path: closed before exit.
        assert states[cfg.exit] == frozenset()
        # fh.read() can raise while the handle is held: the leak the
        # exceptional edges exist to expose.
        assert states[cfg.raise_exit] == frozenset({0})

    def test_try_finally_routes_return_and_raise_through_the_release(self):
        cfg, _analysis, states = resource_states(
            """
            def f(p):
                fh = open(p)
                try:
                    return fh.read()
                finally:
                    fh.close()
            """
        )
        assert states[cfg.exit] == frozenset()
        assert states[cfg.raise_exit] == frozenset()

    def test_loop_reaches_a_fixpoint_and_reports_the_carried_leak(self):
        cfg, _analysis, states = resource_states(
            """
            def f(paths):
                for p in paths:
                    fh = open(p)
                    fh.read()
                return None
            """
        )
        # run_forward terminated (fixpoint) and the handle acquired in
        # iteration N is still live entering iteration N+1 and at exit.
        assert states[cfg.exit] == frozenset({0})
        assert states[cfg.raise_exit] == frozenset({0})

    def test_escape_through_call_argument_transfers_ownership(self):
        cfg, _analysis, states = resource_states(
            """
            def f(p, sink):
                fh = open(p)
                sink(fh)
                return None
            """
        )
        assert states[cfg.exit] == frozenset()

    def test_attribute_read_does_not_transfer_ownership(self):
        cfg, _analysis, states = resource_states(
            """
            def f(p, sink):
                fh = open(p)
                sink(fh.name)
                return None
            """
        )
        # Passing fh.name hands over a derived value; the caller still
        # owns fh, so it is live (leaked) at exit.
        assert states[cfg.exit] == frozenset({0})


class TestHelpers:
    def test_expr_token_handles_dotted_chains(self):
        assert expr_token(ast.parse("self._lock", mode="eval").body) == "self._lock"
        assert expr_token(ast.parse("a.b.c", mode="eval").body) == "a.b.c"
        assert expr_token(ast.parse("f()", mode="eval").body) is None

    def test_can_raise_is_conservative_but_not_silly(self):
        def first_stmt(src):
            return ast.parse(textwrap.dedent(src)).body[0]

        assert can_raise(first_stmt("x = f()"))
        assert can_raise(first_stmt("raise ValueError"))
        assert not can_raise(first_stmt("pass"))
        assert not can_raise(first_stmt("x = 1"))
        # Nested bodies do not execute at definition time.
        assert not can_raise(first_stmt("def g():\n    return f()"))

    def test_function_cfgs_uses_dotted_contexts(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                class Runner:
                    def run(self):
                        def retry():
                            return 1
                        return retry()

                def main():
                    return 0
                """
            )
        )
        contexts = [ctx for ctx, _func, _cfg in function_cfgs(tree)]
        assert contexts == ["Runner.run", "Runner.run.retry", "main"]
