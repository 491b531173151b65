"""The repo's syntactic ruleset: R001-R005, R007 and R010.

Each rule encodes one contract the dynamic test suites already enforce
at run time; the linter proves the violating code was never written.
See ``docs/static-analysis.md`` for the catalog with rationale.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .flowrules import FLOW_RULES
from .project import ModuleInfo, ProjectModel, qualified_call_name, self_method_calls
from .rules import Finding, Rule, Severity, scoped_nodes, set_valued_names

__all__ = ["ALL_RULES", "default_rules"]


# Module-level functions of `random` that draw from the hidden shared
# instance (random.Random is fine: it *is* the seeded-instance API).
_RANDOM_SHARED_FUNCS = frozenset(
    {
        "betavariate", "binomialvariate", "choice", "choices", "expovariate",
        "gammavariate", "gauss", "getrandbits", "getstate", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint", "random",
        "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
        "uniform", "vonmisesvariate", "weibullvariate",
    }
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time",
        "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

# repro.obs factories whose *use inside a loop* breaks the flush-once
# contract; matched through import aliases, so `from ..obs import counter`
# and `from repro.obs.metrics import counter` both resolve.
_OBS_FACTORIES = frozenset({"counter", "gauge", "histogram", "span"})
_OBS_MODULES = ("repro.obs",)
_METRIC_METHODS = frozenset({"inc", "dec", "observe", "observe_many"})


def _is_obs_origin(origin: str | None) -> bool:
    return origin is not None and any(
        origin == f"{mod}.{fn}" or origin.startswith(f"{mod}.") and origin.endswith(f".{fn}")
        for mod in _OBS_MODULES
        for fn in _OBS_FACTORIES
    )


class R001NoSharedRandom(Rule):
    id = "R001"
    name = "no-shared-random"
    severity = Severity.ERROR
    description = (
        "Calls to `random` module-level functions draw from the hidden "
        "process-wide instance; all randomness must flow through seeded "
        "Random/repro.rng objects."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        for node, context, _ in scoped_nodes(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random" and node.level == 0:
                for alias in node.names:
                    if alias.name in _RANDOM_SHARED_FUNCS:
                        yield self.finding(
                            module, node,
                            f"`from random import {alias.name}` binds a "
                            "shared-instance function; use a seeded Random",
                            context,
                        )
            elif isinstance(node, ast.Call):
                origin = qualified_call_name(node.func, module.aliases)
                if origin and origin.startswith("random."):
                    func = origin[len("random."):]
                    if func in _RANDOM_SHARED_FUNCS:
                        yield self.finding(
                            module, node,
                            f"call to shared-instance `random.{func}()`; "
                            "use a seeded Random/repro.rng instance",
                            context,
                        )


class R002NoWallClock(Rule):
    id = "R002"
    name = "no-wall-clock"
    severity = Severity.ERROR
    description = (
        "Wall-clock reads outside the observability layer make runs "
        "time-dependent; go through repro.obs.clock."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        for node, context, _ in scoped_nodes(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = qualified_call_name(node.func, module.aliases)
            if origin in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock call `{origin}()`; use repro.obs.clock "
                    "(monotonic_time/wall_time)",
                    context,
                )


class R003MutatorsInvalidateDerived(Rule):
    id = "R003"
    name = "mutators-invalidate-derived"
    severity = Severity.ERROR
    description = (
        "Any method of a `_derived`-caching class that mutates instance "
        "state must invalidate `_derived` (directly or via a method that "
        "does), or the CSR/fingerprint caches go stale."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        for node, context, _ in scoped_nodes(module.tree):
            if isinstance(node, ast.ClassDef) and self._owns_derived(node):
                yield from self._check_class(module, node, context)

    @staticmethod
    def _owns_derived(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "_derived"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef, outer: str
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        touches = {name: _touches_derived(fn) for name, fn in methods.items()}
        calls = {name: self_method_calls(fn) & set(methods) for name, fn in methods.items()}
        # Transitive closure: a method invalidates if it touches _derived
        # or calls (possibly through other methods) one that does.
        invalidates = {name for name, t in touches.items() if t}
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name not in invalidates and calls[name] & invalidates:
                    invalidates.add(name)
                    changed = True
        for name, fn in sorted(methods.items()):
            if name in invalidates:
                continue
            site = _first_self_mutation(fn)
            if site is not None:
                yield self.finding(
                    module, site,
                    f"`{cls.name}.{name}` mutates instance state without "
                    "invalidating `_derived`",
                    f"{outer}.{cls.name}.{name}" if outer else f"{cls.name}.{name}",
                )


_CONTAINER_MUTATORS = frozenset(
    {"add", "append", "clear", "discard", "extend", "insert", "pop",
     "popitem", "remove", "setdefault", "update"}
)


def _self_attr(node: ast.expr) -> str | None:
    """The `<attr>` of a `self.<attr>` base, looking through subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _touches_derived(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_derived"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


def _first_self_mutation(func: ast.FunctionDef | ast.AsyncFunctionDef) -> ast.AST | None:
    """First statement mutating `self.<attr>` state (attr != _derived)."""
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, ast.Delete) else [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CONTAINER_MUTATORS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None and attr != "_derived":
                return node
        for target in targets:
            attr = _self_attr(target)
            if attr is not None and attr != "_derived":
                return node
    return None


class R004NoObsInHotLoops(Rule):
    id = "R004"
    name = "no-obs-in-hot-loops"
    severity = Severity.WARNING
    description = (
        "Metric/trace calls lexically inside loops in kernel modules "
        "violate the flush-local-ints-once-per-run contract."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        metric_locals = _metric_bound_names(module)
        for node, context, depth in scoped_nodes(module.tree):
            if depth == 0 or not isinstance(node, ast.Call):
                continue
            origin = qualified_call_name(node.func, module.aliases)
            if _is_obs_origin(origin):
                short = origin.rpartition(".")[2]
                yield self.finding(
                    module, node,
                    f"obs call `{short}(...)` inside a loop; acquire metrics "
                    "once per run and flush local accumulators after the loop",
                    context,
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in metric_locals
            ):
                yield self.finding(
                    module, node,
                    f"metric method `.{node.func.attr}()` on "
                    f"`{node.func.value.id}` inside a loop; flush once after "
                    "the loop instead",
                    context,
                )


def _metric_bound_names(module: ModuleInfo) -> set[str]:
    """Names assigned from an obs factory call anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            origin = qualified_call_name(node.value.func, module.aliases)
            if _is_obs_origin(origin):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


class R005NoUnorderedSetIteration(Rule):
    id = "R005"
    name = "no-unordered-set-iteration"
    severity = Severity.ERROR
    description = (
        "Iterating a bare set in a seeded code path makes decisions depend "
        "on hash-table layout; wrap the iterable in sorted(...)."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        # Collect per-function set-valued locals (module-level too).
        scopes: dict[str, set[str]] = {"": set_valued_names(module.tree)}
        for node, context, _ in scoped_nodes(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{context}.{node.name}" if context else node.name
                scopes[inner] = set_valued_names(node)
        for node, context, _ in scoped_nodes(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_unordered(it, scopes.get(context, scopes[""])):
                    yield self.finding(
                        module, it,
                        "iteration over an unordered set feeds seeded "
                        "decisions; use sorted(...) or an insertion-ordered "
                        "dict",
                        context,
                    )

    @staticmethod
    def _is_unordered(node: ast.expr, local_sets: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                # dict.keys() views iterate in insertion order, but a keys()
                # view of a set-derived dict is a smell the rule names
                # explicitly; only flag when the receiver is a known set.
                return (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id in local_sets
                )
            return False
        return isinstance(node, ast.Name) and node.id in local_sets


class R007NoSwallowedExceptions(Rule):
    id = "R007"
    name = "no-swallowed-exceptions"
    severity = Severity.WARNING
    description = (
        "Bare `except:` and pass-only handlers hide engine failures; "
        "handle, log, or re-raise."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        for node, context, _ in scoped_nodes(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions",
                    context,
                )
            elif all(_is_noop_stmt(stmt) for stmt in node.body):
                yield self.finding(
                    module, node,
                    "exception handler swallows the error (pass-only body)",
                    context,
                )


def _is_noop_stmt(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Pass):
        return True
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


# R006, R008, R009, R014 and R016 are retired ids and are never reused
# (see the catalog in docs/static-analysis.md).


# R010: the observability naming contract.  Metric names are Prometheus
# snake_case; the suffix encodes the metric's semantics (`_total` marks a
# monotonic counter, `_seconds`/`_bytes`/`_ratio` mark a histogram's unit).
# Span names are dotted lowercase paths (`kl.pass`, `engine.batch`).
_SNAKE_NAME_RE = re.compile(r"^[a-z][a-z0-9]*(?:_[a-z0-9]+)*$")
_SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)*$")
_HISTOGRAM_UNIT_SUFFIXES = ("_seconds", "_bytes", "_ratio")
_METRIC_FACTORY_ATTRS = frozenset({"counter", "gauge", "histogram", "span"})


class R010MetricNamingContract(Rule):
    id = "R010"
    name = "metric-naming-contract"
    severity = Severity.ERROR
    description = (
        "Metric/span names must follow the naming contract (snake_case; "
        "counters end in `_total`, histograms in a unit suffix, spans are "
        "dotted lowercase), and histogram bucket sequences must be declared "
        "outside hot loops."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        for node, context, depth in scoped_nodes(module.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._factory_kind(node, module)
            if kind is None:
                continue
            name = self._literal_name(node)
            if name is not None:
                problem = self._name_problem(kind, name)
                if problem is not None:
                    yield self.finding(
                        module, node,
                        f"{kind} name {name!r} {problem}",
                        context,
                    )
            if kind == "histogram" and depth > 0:
                buckets = self._buckets_arg(node)
                if buckets is not None and self._is_inline_sequence(buckets):
                    yield self.finding(
                        module, node,
                        "histogram bucket sequence built inside a loop; "
                        "declare the buckets tuple once at module scope",
                        context,
                    )

    @staticmethod
    def _factory_kind(node: ast.Call, module: ModuleInfo) -> str | None:
        """"counter"/"gauge"/"histogram"/"span" when this call creates one."""
        origin = qualified_call_name(node.func, module.aliases)
        if _is_obs_origin(origin):
            return origin.rpartition(".")[2]
        # Registry-method form: REGISTRY.counter(...), registry.histogram(...)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_FACTORY_ATTRS
            and node.func.attr != "span"
        ):
            return node.func.attr
        return None

    @staticmethod
    def _literal_name(node: ast.Call) -> str | None:
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                return value
        return None

    @staticmethod
    def _name_problem(kind: str, name: str) -> str | None:
        if kind == "span":
            if not _SPAN_NAME_RE.match(name):
                return "is not a dotted lowercase path (e.g. `kl.pass`)"
            return None
        if not _SNAKE_NAME_RE.match(name):
            return "is not snake_case"
        if kind == "counter" and not name.endswith("_total"):
            return "is a counter and must end in `_total`"
        if kind == "gauge" and name.endswith("_total"):
            return "is a gauge and must not end in `_total` (counter suffix)"
        if kind == "histogram" and not name.endswith(_HISTOGRAM_UNIT_SUFFIXES):
            suffixes = "/".join(_HISTOGRAM_UNIT_SUFFIXES)
            return f"is a histogram and must end in a unit suffix ({suffixes})"
        return None

    @staticmethod
    def _buckets_arg(node: ast.Call) -> ast.expr | None:
        for kw in node.keywords:
            if kw.arg == "buckets":
                return kw.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    @staticmethod
    def _is_inline_sequence(node: ast.expr) -> bool:
        return isinstance(
            node, (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp)
        )


ALL_RULES: tuple[type[Rule], ...] = (
    R001NoSharedRandom,
    R002NoWallClock,
    R003MutatorsInvalidateDerived,
    R004NoObsInHotLoops,
    R005NoUnorderedSetIteration,
    R007NoSwallowedExceptions,
    R010MetricNamingContract,
    *FLOW_RULES,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [cls() for cls in ALL_RULES]
