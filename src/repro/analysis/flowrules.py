"""Flow-sensitive rules R011-R013 and R015, built on the CFG/dataflow layer.

These rules answer path questions the syntactic ruleset (R001-R005,
R007, R010) cannot: *is this attribute write always under the lock that
guards its siblings?  Does this shm segment reach a close() on the
exceptional path too?*  Each rule composes :mod:`repro.analysis.cfg` and
:mod:`repro.analysis.dataflow` with the project model:

* **R011** lock discipline — an attribute written under ``self._lock``
  in one method must not be written lock-free in another.
* **R012** fork/spawn-unsafe module state — module-level mutable
  containers mutated at run time in modules reachable from worker entry
  points diverge between ``fork`` (inherits parent state) and ``spawn``
  (re-imports fresh) workers.
* **R013** resource lifetime — every shm/file/socket acquisition must
  reach a release on all CFG paths, including exceptional edges.
* **R015** blocking calls in worker hot paths — ``time.sleep``,
  unbounded ``.join()``, and timeout-less socket connects inside
  functions that run on pool workers.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from .cfg import CFG, build_cfg, expr_token, function_cfgs, head_parts
from .dataflow import (
    LockSetAnalysis,
    ResourceAnalysis,
    ResourceSpec,
    is_lock_factory,
    run_forward,
)
from .escape import concurrency_sites, global_mutations, mutable_globals
from .project import ModuleInfo, ProjectModel, qualified_call_name
from .rules import Finding, Rule, Severity, scoped_nodes

__all__ = ["FLOW_RULES"]


def _calls(*nodes: ast.AST) -> Iterator[ast.Call]:
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                yield sub


def _resolver(module: ModuleInfo) -> Callable[[ast.expr], str | None]:
    return lambda expr: qualified_call_name(expr, module.aliases)


# -- R011: lock discipline ---------------------------------------------------------

_MUTATOR_METHODS = frozenset(
    {"add", "append", "appendleft", "clear", "discard", "extend",
     "extendleft", "insert", "pop", "popleft", "popitem", "remove",
     "setdefault", "update"}
)
#: Methods that run while the object is not yet (or no longer) shared.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__del__", "__getstate__", "__setstate__",
     "__reduce__", "__copy__", "__deepcopy__", "__init_subclass__"}
)


def _self_attr_writes(stmt: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """``(attr, site)`` for each write to ``self.<attr>`` in one statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return  # nested bodies do not execute here
    targets: list[ast.expr] = []
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    for target in targets:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            yield base.attr, stmt
    for call in _calls(*head_parts(stmt)):
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATOR_METHODS
        ):
            recv = call.func.value
            while isinstance(recv, ast.Subscript):
                recv = recv.value
            if (
                isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self"
            ):
                yield recv.attr, call


class _SeededLockSet(LockSetAnalysis):
    """Lock-set analysis whose entry state can pre-hold caller locks."""

    def __init__(self, known: frozenset[str], entry: frozenset[str]) -> None:
        super().__init__(known)
        self._entry = entry

    def initial(self) -> frozenset[str]:
        return self._entry


class R011LockDiscipline(Rule):
    id = "R011"
    name = "lock-discipline"
    severity = Severity.ERROR
    description = (
        "An attribute written under a lock in one method must be written "
        "under the same lock everywhere (construction-time methods exempt); "
        "a lock-free sibling write is a data race."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        resolve = _resolver(module)
        for node, context, _ in scoped_nodes(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node, context, resolve)

    def _check_class(
        self,
        module: ModuleInfo,
        cls: ast.ClassDef,
        outer: str,
        resolve: Callable[[ast.expr], str | None],
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        lock_tokens = self._lock_tokens(methods.values(), resolve)
        if not lock_tokens:
            return
        cfgs = {name: build_cfg(fn) for name, fn in methods.items()}
        states = self._converged_states(methods, cfgs, lock_tokens)

        # Collect every self-attribute write with the locks held there.
        writes: list[tuple[str, str, ast.AST, frozenset[str]]] = []
        for name, cfg in cfgs.items():
            for block in cfg.statements():
                in_state = states[name].get(block.id)
                if in_state is None:
                    continue  # unreachable
                for attr, site in _self_attr_writes(block.node):
                    if f"self.{attr}" in lock_tokens:
                        continue  # assigning the lock itself
                    writes.append((attr, name, site, in_state))

        guards: dict[str, frozenset[str]] = {}
        for attr, method, _site, held in writes:
            if method in _CONSTRUCTION_METHODS:
                continue
            locks = held & lock_tokens
            if locks:
                guards[attr] = guards.get(attr, frozenset()) | locks
        for attr, method, site, held in writes:
            if method in _CONSTRUCTION_METHODS:
                continue
            guard = guards.get(attr)
            if guard and not (held & guard):
                locks = "/".join(sorted(guard))
                context = f"{self._ctx(cls, method)}"
                yield self.finding(
                    module, site,
                    f"`self.{attr}` is written under `{locks}` elsewhere in "
                    f"`{cls.name}` but written here without it",
                    context,
                )

    @staticmethod
    def _ctx(cls: ast.ClassDef, method: str) -> str:
        return f"{cls.name}.{method}"

    @staticmethod
    def _lock_tokens(
        methods, resolve: Callable[[ast.expr], str | None]
    ) -> frozenset[str]:
        tokens: set[str] = set()
        for fn in methods:
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                if not is_lock_factory(resolve(node.value.func)):
                    continue
                for target in node.targets:
                    token = expr_token(target)
                    if token is not None and token.startswith("self."):
                        tokens.add(token)
        return frozenset(tokens)

    def _converged_states(
        self,
        methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        cfgs: dict[str, CFG],
        lock_tokens: frozenset[str],
    ) -> dict[str, dict[int, frozenset[str] | None]]:
        """Per-method in-states, seeding private helpers with caller locks.

        A ``_locked``-style helper is only ever called with the lock held;
        starting it from the empty set would flag every write inside it.
        Private methods (leading underscore) inherit the intersection of
        the lock sets at their intra-class call sites, iterated to a
        small fixed point (callers may themselves be seeded helpers).
        """
        seeds: dict[str, frozenset[str]] = {name: frozenset() for name in methods}
        states: dict[str, dict[int, frozenset[str] | None]] = {}
        for _ in range(4):
            for name, cfg in cfgs.items():
                analysis = _SeededLockSet(lock_tokens, seeds[name])
                states[name] = run_forward(cfg, analysis)
            call_locks: dict[str, list[frozenset[str]]] = {}
            for name, cfg in cfgs.items():
                for block in cfg.statements():
                    in_state = states[name].get(block.id)
                    if in_state is None:
                        continue
                    for call in _calls(*head_parts(block.node)):
                        if (
                            isinstance(call.func, ast.Attribute)
                            and isinstance(call.func.value, ast.Name)
                            and call.func.value.id == "self"
                            and call.func.attr in methods
                        ):
                            call_locks.setdefault(call.func.attr, []).append(
                                in_state & lock_tokens
                            )
            new_seeds = dict(seeds)
            for name in methods:
                if not name.startswith("_") or name.startswith("__"):
                    continue  # public API: callable with no locks held
                sites = call_locks.get(name)
                if sites:
                    inherited = sites[0]
                    for held in sites[1:]:
                        inherited = inherited & held
                    new_seeds[name] = inherited
            if new_seeds == seeds:
                break
            seeds = new_seeds
        return states


# -- R012: fork/spawn-unsafe module state ------------------------------------------


class R012ForkSpawnSafeModuleState(Rule):
    id = "R012"
    name = "fork-spawn-safe-module-state"
    severity = Severity.ERROR
    description = (
        "Run-time mutation of module-level mutable state in a module "
        "reachable from worker entry points diverges between fork workers "
        "(inherit parent state) and spawn workers (re-import fresh)."
    )

    def __init__(self) -> None:
        self._cache: tuple[int, set[str], set[str], set[str], set[str]] | None = None

    def _project_facts(
        self, project: ProjectModel
    ) -> tuple[set[str], set[str], set[str], set[str]]:
        """(worker-reachable modules, pool initializers, and the names
        called at module level vs. inside functions, project-wide)."""
        if self._cache is not None and self._cache[0] == id(project):
            return self._cache[1], self._cache[2], self._cache[3], self._cache[4]
        spawning: set[str] = set()
        initializers: set[str] = set()
        entry_names: set[str] = set()
        for module in project:
            sites = concurrency_sites(module)
            if sites.spawn_calls:
                spawning.add(module.name)
            entry_names |= sites.entry_names
            initializers |= sites.initializer_names
        # Modules defining an entry-point function are worker roots even
        # when the spawn call lives elsewhere.
        roots = set(spawning)
        for module in project:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in entry_names
                ):
                    roots.add(module.name)
                    break
        # Everything a worker root imports (transitively) is re-imported
        # inside the worker; its module state is subject to the rule.
        graph = project.import_graph()
        reachable = set(roots)
        frontier = list(roots)
        while frontier:
            for dep in graph.get(frontier.pop(), ()):
                if dep not in reachable:
                    reachable.add(dep)
                    frontier.append(dep)
        # Call-context index for the import-time-only exemption: one walk
        # over the project here instead of one per candidate function.
        toplevel_called: set[str] = set()
        runtime_called: set[str] = set()
        for module in project:
            for node, context, _ in scoped_nodes(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                ref = node.func
                name = ref.id if isinstance(ref, ast.Name) else (
                    ref.attr if isinstance(ref, ast.Attribute) else None
                )
                if name is not None:
                    (toplevel_called if context == "" else runtime_called).add(name)
        self._cache = (
            id(project), reachable, initializers, toplevel_called, runtime_called
        )
        return reachable, initializers, toplevel_called, runtime_called

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        reachable, initializers, toplevel_called, runtime_called = (
            self._project_facts(project)
        )
        if module.name not in reachable:
            return
        globals_ = mutable_globals(module)
        if not globals_:
            return
        # Globals a pool initializer rebinds are per-process state by
        # construction; mutating them anywhere in the module is the
        # sanctioned pattern, not a fork/spawn divergence.
        names = set(globals_) - self._initializer_reset(module, initializers)
        if not names:
            return
        for node, context, _ in scoped_nodes(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in initializers:
                continue  # per-worker reset: the sanctioned pattern
            # Import-time registration (`register_algorithm(...)` at the
            # foot of each algorithm module) mutates registries
            # identically in fork and spawn workers, so a function called
            # only at module level project-wide is exempt.
            if node.name in toplevel_called and node.name not in runtime_called:
                continue
            fn_context = f"{context}.{node.name}" if context else node.name
            seen: set[str] = set()
            for name, site in global_mutations(node, names):
                if name in seen:
                    continue
                seen.add(name)
                yield self.finding(
                    module, site,
                    f"module-level mutable `{name}` is mutated at run time "
                    "in a worker-reachable module; fork and spawn workers "
                    "will diverge — reset it in a pool initializer or pass "
                    "state through job payloads",
                    fn_context,
                )

    @staticmethod
    def _initializer_reset(module: ModuleInfo, initializers: set[str]) -> set[str]:
        """Names declared ``global`` inside a pool-initializer function."""
        reset: set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in initializers
            ):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Global):
                        reset.update(sub.names)
        return reset


# -- R013: resource lifetime -------------------------------------------------------

_FILE_OPEN_ORIGINS = frozenset(
    {"open", "io.open", "os.fdopen", "gzip.open", "bz2.open", "lzma.open"}
)


def _shm_matches(call: ast.Call, resolve) -> bool:
    origin = resolve(call.func)
    if origin is None:
        return False
    return (
        origin.endswith("SharedGraphSegment.create")
        or origin.endswith("SharedGraphSegment.attach")
        or origin.endswith("SharedMemory")
    )


def _file_matches(call: ast.Call, resolve) -> bool:
    origin = resolve(call.func)
    if origin is None and isinstance(call.func, ast.Name):
        origin = call.func.id  # builtin `open` is never imported
    return origin in _FILE_OPEN_ORIGINS


def _socket_matches(call: ast.Call, resolve) -> bool:
    origin = resolve(call.func)
    if origin is None:
        return False
    return origin.endswith("socket.socket") or origin.endswith(
        "socket.create_connection"
    )


RESOURCE_SPECS: tuple[ResourceSpec, ...] = (
    ResourceSpec("shm", _shm_matches, frozenset({"close", "unlink"})),
    ResourceSpec("file", _file_matches, frozenset({"close"})),
    ResourceSpec("socket", _socket_matches, frozenset({"close", "detach"})),
)


class R013ResourceLifetime(Rule):
    id = "R013"
    name = "resource-lifetime"
    severity = Severity.ERROR
    description = (
        "Every shm/file/socket acquisition must reach a release on every "
        "CFG path — including the path where a statement between acquire "
        "and release raises."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        resolve = _resolver(module)
        for context, _func, cfg in function_cfgs(module.tree):
            yield from self._check_cfg(module, context, cfg, resolve)
        # Module-level acquisitions: the module body is itself a
        # straight-line "function".
        yield from self._check_cfg(module, "", build_cfg(module.tree), resolve)

    def _check_cfg(
        self, module: ModuleInfo, context: str, cfg: CFG, resolve
    ) -> Iterator[Finding]:
        analysis = ResourceAnalysis(cfg, list(RESOURCE_SPECS), resolve)
        if not analysis.acquisitions:
            return
        states = run_forward(cfg, analysis)
        at_exit = states.get(cfg.exit) or frozenset()
        at_raise = states.get(cfg.raise_exit) or frozenset()
        for site in sorted(at_exit | at_raise):
            acq = analysis.acquisitions[site]
            label = resolve(acq.node.func) or getattr(acq.node.func, "id", "call")
            releases = "/".join(f"`{r}()`" for r in sorted(acq.spec.releases))
            if site in at_exit:
                message = (
                    f"`{acq.name}` acquired via `{label}(...)` can reach "
                    f"function exit unreleased; release it ({releases}) in "
                    "a finally block or hold it in a with statement"
                )
            else:
                message = (
                    f"`{acq.name}` acquired via `{label}(...)` leaks when a "
                    "statement between acquire and release raises; wrap the "
                    f"use in try/finally (or with) so the exceptional path "
                    f"reaches {releases} too"
                )
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=module.relpath,
                line=getattr(acq.node, "lineno", 0),
                col=getattr(acq.node, "col_offset", 0),
                message=message,
                context=context,
            )


# -- R015: blocking calls in worker hot paths --------------------------------------


class R015NoBlockingInWorkers(Rule):
    id = "R015"
    name = "no-blocking-in-workers"
    severity = Severity.WARNING
    description = (
        "time.sleep, unbounded .join(), and timeout-less socket connects "
        "inside worker entry points stall the whole pool lane; use "
        "timeouts and let the coordinator own back-off."
    )

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        workers = self._worker_functions(module)
        resolve = _resolver(module)
        for context, func in sorted(workers.items()):
            for call in _calls(func):
                origin = resolve(call.func)
                if origin == "time.sleep":
                    yield self.finding(
                        module, call,
                        "blocking `time.sleep(...)` in a worker hot path; "
                        "back-off belongs in the coordinator",
                        context,
                    )
                elif (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "join"
                    and not call.args
                    and not any(kw.arg == "timeout" for kw in call.keywords)
                ):
                    yield self.finding(
                        module, call,
                        "unbounded `.join()` in a worker hot path; pass a "
                        "timeout so a wedged peer cannot stall the lane",
                        context,
                    )
                elif origin is not None and origin.endswith(
                    "socket.create_connection"
                ) and not any(kw.arg == "timeout" for kw in call.keywords) and len(
                    call.args
                ) < 2:
                    yield self.finding(
                        module, call,
                        "socket connect without a timeout in a worker hot "
                        "path",
                        context,
                    )

    @staticmethod
    def _worker_functions(module: ModuleInfo) -> dict[str, ast.AST]:
        """Worker entry points plus their same-module callee closure."""
        sites = concurrency_sites(module)
        if not sites.entry_names:
            return {}
        defs: dict[str, list[tuple[ast.AST, str]]] = {}
        for node, context, _ in scoped_nodes(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((node, context))
        selected: dict[str, ast.AST] = {}
        visited: set[str] = set()
        frontier = sorted(sites.entry_names)
        while frontier:
            name = frontier.pop()
            if name in visited:
                continue
            visited.add(name)
            for func, context in defs.get(name, []):
                key = f"{context}.{func.name}" if context else func.name
                selected[key] = func
                for call in _calls(func):
                    ref = call.func
                    callee = None
                    if isinstance(ref, ast.Name):
                        callee = ref.id
                    elif (
                        isinstance(ref, ast.Attribute)
                        and isinstance(ref.value, ast.Name)
                        and ref.value.id == "self"
                    ):
                        callee = ref.attr
                    if callee in defs and callee not in visited:
                        frontier.append(callee)
        return selected


FLOW_RULES: tuple[type[Rule], ...] = (
    R011LockDiscipline,
    R012ForkSpawnSafeModuleState,
    R013ResourceLifetime,
    R015NoBlockingInWorkers,
)
