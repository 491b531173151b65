"""Nested wall-time spans and the per-run trace context.

A *span* is one timed region with a name, attributes, and a position in
the nesting tree::

    with span("kl.run", n=graph.num_vertices):
        with span("kl.pass"):
            ...

Spans cost two ``perf_counter`` calls plus a list append — cheap enough
for per-pass / per-temperature granularity (never per-move).  When obs is
disabled (``REPRO_OBS=0``) :func:`span` yields a shared inert object and
records nothing.

A :class:`RunContext` (entered via :func:`run_context`) scopes a *run*:
it owns the ``run_id``, collects finished spans, aggregates per-name
totals for the ledger, and optionally appends each finished span to a
JSONL sink using the shared event envelope (``ts`` / ``run_id`` /
``kind``) that :mod:`repro.engine.telemetry` also emits — so one file can
be tailed for engine events and spans alike.  Without an active run
context, spans still measure and aggregate into a process-wide collector
so library users get span totals in ledgers built ad hoc.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from .clock import monotonic_time, wall_time
from .metrics import REGISTRY, MetricsRegistry, obs_enabled

__all__ = [
    "RunContext",
    "Span",
    "capture_spans",
    "current_run",
    "current_run_id",
    "envelope",
    "ingest_span_record",
    "new_run_id",
    "reset_span_totals",
    "run_context",
    "span",
    "span_totals",
]

_run_counter = itertools.count()
_span_counter = itertools.count()


def _new_span_id() -> str:
    """A span id unique across processes: pid plus a per-process counter.

    Worker spans ship back to the parent (:mod:`repro.obs.shipper`) and
    land in the same timeline as parent spans, so ids from different
    processes must never collide.
    """
    return f"{os.getpid():x}.{next(_span_counter):x}"


def new_run_id() -> str:
    """A fresh, human-sortable run id: epoch millis, pid, and a counter."""
    return f"{int(wall_time() * 1000):013d}-{os.getpid():05d}-{next(_run_counter)}"


def envelope(kind: str, run_id: str | None = None, **fields: Any) -> dict[str, Any]:
    """The shared JSONL event envelope: ``ts`` + ``run_id`` + ``kind`` first.

    Engine telemetry and span records both go through this, which is what
    lets one file carry every event stream.
    """
    record: dict[str, Any] = {
        "ts": round(wall_time(), 6),
        "run_id": run_id if run_id is not None else current_run_id(),
        "kind": kind,
    }
    record.update(fields)
    return record


class Span:
    """One finished (or in-flight) timed region.

    Each span carries an id unique across processes and a link to its
    lexical parent, so a finished-span record is a timeline node the
    Chrome-trace exporter (:mod:`repro.obs.timeline`) can reassemble —
    even when the records come from several pool workers interleaved in
    one JSONL file.
    """

    __slots__ = (
        "name", "attrs", "began", "seconds", "depth", "error",
        "span_id", "parent_id", "started_at",
    )

    def __init__(
        self,
        name: str,
        attrs: dict[str, Any],
        depth: int,
        parent_id: str | None = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.depth = depth
        self.began = monotonic_time()
        self.seconds = 0.0
        self.error: str | None = None
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.started_at = wall_time()

    def to_record(self, run_id: str | None) -> dict[str, Any]:
        record = envelope(
            "span",
            run_id=run_id,
            name=self.name,
            seconds=round(self.seconds, 6),
            depth=self.depth,
            span_id=self.span_id,
            start=round(self.started_at, 6),
            pid=os.getpid(),
        )
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        if self.error is not None:
            record["error"] = self.error
        return record


class _Inert:
    """Stand-in yielded by :func:`span` when obs is disabled."""

    __slots__ = ()

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("inert span is read-only")


_INERT = _Inert.__new__(_Inert)


class _SpanCollector:
    """Per-name aggregation of finished spans: count / total / max seconds."""

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = {}

    def add(self, finished: Span) -> None:
        self._bump(finished.name, finished.seconds, finished.error)

    def add_record(self, record: dict[str, Any]) -> None:
        """Aggregate a finished-span *record* (e.g. shipped from a worker)."""
        self._bump(record["name"], record.get("seconds", 0.0), record.get("error"))

    def _bump(self, name: str, seconds: float, error: str | None) -> None:
        entry = self.totals.get(name)
        if entry is None:
            entry = {"count": 0, "seconds": 0.0, "max_seconds": 0.0, "errors": 0}
            self.totals[name] = entry
        entry["count"] += 1
        entry["seconds"] += seconds
        if seconds > entry["max_seconds"]:
            entry["max_seconds"] = seconds
        if error is not None:
            entry["errors"] += 1

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "count": entry["count"],
                "seconds": round(entry["seconds"], 6),
                "max_seconds": round(entry["max_seconds"], 6),
                "errors": entry["errors"],
            }
            for name, entry in sorted(self.totals.items())
        }

    def reset(self) -> None:
        self.totals.clear()


class RunContext:
    """Scopes one run: run id, span collection, optional JSONL sink."""

    def __init__(
        self,
        run_id: str | None = None,
        jsonl_path: str | Path | None = None,
        workload: dict[str, Any] | None = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.jsonl_path = Path(jsonl_path) if jsonl_path else None
        self.workload = dict(workload) if workload else {}
        self.collector = _SpanCollector()
        self.started_at = wall_time()
        self.finished_at: float | None = None
        self._began = monotonic_time()
        self.wall_seconds = 0.0
        self.spans: list[dict[str, Any]] = []
        self.metrics_before: dict[str, Any] = {}

    def finish(self) -> None:
        self.finished_at = wall_time()
        self.wall_seconds = monotonic_time() - self._began

    def record(self, finished: Span) -> None:
        self.collector.add(finished)
        record = finished.to_record(self.run_id)
        self.spans.append(record)
        if self.jsonl_path is not None:
            with open(self.jsonl_path, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")


class _State(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.run: RunContext | None = None
        self.capture: list[dict[str, Any]] | None = None


_STATE = _State()

#: Fallback collector for spans finished outside any run context.
_GLOBAL_COLLECTOR = _SpanCollector()


def current_run() -> RunContext | None:
    """The active :class:`RunContext`, or ``None``."""
    return _STATE.run


def current_run_id() -> str | None:
    run = _STATE.run
    return run.run_id if run is not None else None


def detach_run() -> None:
    """Leave this thread's run context without finishing it.

    A forked pool worker calls this at start-up: its main thread is a
    copy of the owner's forking thread, run context included.
    """
    _STATE.run = None


def span_totals() -> dict[str, dict[str, float]]:
    """Aggregated span totals: the active run's if any, else process-wide."""
    run = _STATE.run
    collector = run.collector if run is not None else _GLOBAL_COLLECTOR
    return collector.snapshot()


def reset_span_totals() -> None:
    """Clear the process-wide span aggregation (test isolation)."""
    _GLOBAL_COLLECTOR.reset()


def ingest_span_record(record: dict[str, Any]) -> None:
    """Absorb a finished-span record that was measured in another process.

    The shipping pipeline calls this in the parent for every span a pool
    worker sent back: the record joins the active run's aggregation,
    span list, and JSONL sink (re-tagged with this run's id) exactly as
    if the span had finished locally — which is what makes ledgers and
    ``trace export`` fleet-wide.  Outside a run context the record lands
    in the process-wide collector.
    """
    if not obs_enabled():
        return
    run = _STATE.run
    if run is None:
        _GLOBAL_COLLECTOR.add_record(record)
        return
    run.collector.add_record(record)
    shipped = dict(record)
    shipped["run_id"] = run.run_id
    run.spans.append(shipped)
    if run.jsonl_path is not None:
        with open(run.jsonl_path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(shipped, sort_keys=True, default=str) + "\n")


@contextmanager
def span(name: str, **attrs: Any):
    """Time a nested region.  Exception-safe: the span is closed (and its
    ``error`` recorded as the exception type name) even when the body
    raises, and the exception propagates untouched.
    """
    if not obs_enabled():
        yield _INERT
        return
    stack = _STATE.stack
    active = Span(
        name, attrs, depth=len(stack),
        parent_id=stack[-1].span_id if stack else None,
    )
    stack.append(active)
    try:
        yield active
    except BaseException as exc:
        active.error = type(exc).__name__
        raise
    finally:
        active.seconds = monotonic_time() - active.began
        stack.pop()
        run = _STATE.run
        if run is not None:
            run.record(active)
        else:
            _GLOBAL_COLLECTOR.add(active)
        if _STATE.capture is not None:
            _STATE.capture.append(active.to_record(current_run_id()))


@contextmanager
def capture_spans(into: list[dict[str, Any]]):
    """Collect every finished span on this thread as a record in ``into``.

    The worker-side half of the shipping pipeline
    (:mod:`repro.obs.shipper`) wraps one job execution in this, then
    ships the collected records back to the parent.  Capture composes
    with (and is independent of) the run-context/global aggregation;
    nesting restores the outer capture list on exit.
    """
    previous = _STATE.capture
    _STATE.capture = into
    try:
        yield into
    finally:
        _STATE.capture = previous


@contextmanager
def run_context(
    run_id: str | None = None,
    jsonl_path: str | Path | None = None,
    workload: dict[str, Any] | None = None,
    registry: MetricsRegistry | None = None,
):
    """Scope a run: set the run id, collect spans, snapshot metrics deltas.

    The metrics registry is snapshotted on entry so the ledger built from
    this context (see :func:`repro.obs.ledger.build_ledger`) reports the
    counters *of this run*, not of the whole process lifetime.  Nesting is
    not supported — the innermost context wins and a warning-free restore
    happens on exit.
    """
    run = RunContext(run_id=run_id, jsonl_path=jsonl_path, workload=workload)
    run.metrics_before = (registry or REGISTRY).snapshot()
    previous = _STATE.run
    _STATE.run = run
    try:
        yield run
    finally:
        run.finish()
        _STATE.run = previous
