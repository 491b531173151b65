"""Per-layer tracing from outside the program: wrap public functions.

A :class:`Tracer` replaces a fixed list of public ``repro`` functions and
methods with timing wrappers.  It rebinds every ``repro.*`` module
attribute that points at a wrapped function, so ``from x import f`` call
sites are caught as well, and it rewrites function default arguments that
hold one (``matching_policy=random_maximal_matching``).  ``restore`` puts
every original back, including bindings made by modules imported while
the tracer was installed.

For each probe the tracer records calls, total time and self time (total
minus the time of wrapped calls nested inside it), plus total time per
(callee, caller) edge.  A recursive call adds to the total only at its
outermost level.  Probes may also turn a call's result into counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

__all__ = ["Probe", "Tracer"]

#: ``(args, kwargs, active probe names) -> name to record the call under``.
Classifier = Callable[[tuple, dict, tuple], str]
#: ``(args, kwargs, result, elapsed seconds) -> counts to add``.
Counter = Callable[[tuple, dict, Any, float], dict]


@dataclass(frozen=True)
class Probe:
    """One function to trace.

    ``target`` is ``"module:qualname"``, e.g. ``"repro.core.compaction:compact"``
    or ``"repro.engine.cache:ResultCache.get"``.  ``name`` is the record
    name; ``classify`` may pick a different name per call, and ``count``
    turns a finished call into counts.
    """

    target: str
    name: str
    classify: Classifier | None = None
    count: Counter | None = None


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _functions_with_defaults(module: Any) -> list[Any]:
    """Functions defined in ``module`` (and its classes) that may hold defaults."""
    found = []
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            for member in list(vars(value).values()):
                func = getattr(member, "__func__", member)
                if callable(func) and hasattr(func, "__defaults__"):
                    found.append(func)
        elif callable(value) and hasattr(value, "__defaults__"):
            found.append(value)
    return found


class Tracer:
    """Install timing wrappers around ``probes``; collect per-name stats."""

    def __init__(self, probes: list[Probe], clock: Callable[[], float] = time.perf_counter):
        self.probes = list(probes)
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.edges: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: dict[int, Any] = {}  # id(wrapper) -> original function
        self._wrappers: dict[int, Any] = {}  # id(original) -> wrapper
        self._class_bindings: list[tuple[type, str, Any]] = []
        self._installed = False

    # -- recording ----------------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, func: Callable, probe: Probe) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frames = tracer._frames()
            active = tuple(frame[0] for frame in frames)
            name = probe.classify(args, kwargs, active) if probe.classify else probe.name
            frame = [name, 0.0]
            frames.append(frame)
            began = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - began
                frames.pop()
                if frames:
                    frames[-1][1] += elapsed
                tracer._record(name, elapsed, frame[1], active)
            if probe.count is not None:
                extra = probe.count(args, kwargs, result, elapsed)
                with tracer._lock:
                    for key, value in extra.items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return wrapper

    def _record(self, name: str, elapsed: float, children: float, active: tuple) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - children
            if name not in active:
                self.total[name] = self.total.get(name, 0.0) + elapsed
            if active:
                edge = f"{name}<{active[-1]}"
                self.edges[edge] = self.edges.get(edge, 0.0) + elapsed

    # -- install / restore --------------------------------------------------------

    def install(self, imported_only: bool = False) -> "Tracer":
        """Wrap every probe; with ``imported_only``, skip probes whose module
        is not imported yet rather than importing it (a short-lived process
        would otherwise pay for importing modules it never uses)."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for probe in self.probes:
            if imported_only and probe.target.partition(":")[0] not in sys.modules:
                continue
            owner, attr, raw = _resolve(probe.target)
            if isinstance(owner, type):
                func = getattr(raw, "__func__", raw)
                wrapped = self._wrap(func, probe)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                self._class_bindings.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                wrapper = self._wrap(raw, probe)
                self._originals[id(wrapper)] = raw
                self._wrappers[id(raw)] = wrapper
        self._rebind(self._wrappers)
        self._installed = True
        return self

    def restore(self) -> None:
        if not self._installed:
            return
        self._rebind(self._originals)
        for owner, attr, raw in reversed(self._class_bindings):
            setattr(owner, attr, raw)
        self._class_bindings.clear()
        self._originals.clear()
        self._wrappers.clear()
        self._installed = False

    @staticmethod
    def _rebind(mapping: dict[int, Any]) -> None:
        """Swap every ``repro`` module binding and default found in ``mapping``."""
        if not mapping:
            return
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                replacement = mapping.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)
            for func in _functions_with_defaults(module):
                if func.__defaults__ and any(id(d) in mapping for d in func.__defaults__):
                    func.__defaults__ = tuple(
                        mapping.get(id(d), d) for d in func.__defaults__
                    )
                kwdefaults = getattr(func, "__kwdefaults__", None)
                if kwdefaults and any(id(d) in mapping for d in kwdefaults.values()):
                    func.__kwdefaults__ = {
                        k: mapping.get(id(d), d) for k, d in kwdefaults.items()
                    }

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> bool:
        self.restore()
        return False

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict copy of everything recorded (JSON-serializable)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total": dict(self.total),
                "self": dict(self.self_time),
                "edges": dict(self.edges),
                "counts": dict(self.counts),
            }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Add another tracer's snapshot (e.g. from a traced subprocess)."""
        targets = {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "edges": self.edges,
            "counts": self.counts,
        }
        with self._lock:
            for key, table in targets.items():
                for name, value in snapshot.get(key, {}).items():
                    table[name] = table.get(name, 0) + value
