"""Structured engine telemetry: per-job events, JSONL sink, and timers.

Every engine action emits a :class:`TelemetryEvent` — batch lifecycle
(``batch_start``/``batch_finish``), per-job flow (``job_queued``,
``job_start``, ``job_finish``), cache traffic (``cache_hit``,
``cache_store``), and degradations (``pool_unavailable``,
``pool_broken``).  Events accumulate in memory for
programmatic summaries and, when a ``jsonl_path`` is given, are appended
to disk one JSON object per line using the shared observability envelope
(``ts`` / ``run_id`` / ``kind`` first — see
:func:`repro.obs.trace.envelope`), so engine events and trace spans can
share one file and be correlated by ``run_id``.  The legacy ``t`` key is
kept for older tail scripts:

    {"ts": 1723.4, "run_id": "…", "kind": "job_finish",
     "job_id": "case0:kl:0", "t": 1723.4, "status": "ok", "cut": 14, ...}

:class:`Timer` is the one-liner wall-clock context manager the CLI uses
in place of hand-rolled ``time.perf_counter()`` pairs.  All clock reads
go through :mod:`repro.obs.clock` — the single sanctioned choke point
the static analyzer (rule R002) allow-lists.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..obs.clock import monotonic_time, wall_time
from ..obs.trace import envelope

__all__ = ["TelemetryEvent", "Telemetry", "Timer"]


class Timer:
    """Wall-clock context manager: ``with Timer() as t: ...; t.seconds``."""

    __slots__ = ("began", "seconds")

    def __init__(self) -> None:
        self.began: float | None = None
        self.seconds: float = 0.0

    def __enter__(self) -> "Timer":
        self.began = monotonic_time()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.seconds = monotonic_time() - self.began
        return False

    @property
    def elapsed(self) -> float:
        """Seconds so far (running) or total (finished)."""
        if self.began is None:
            return 0.0
        if self.seconds:
            return self.seconds
        return monotonic_time() - self.began


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured event: kind, optional job id, timestamp, payload."""

    kind: str
    job_id: str | None
    t: float
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record = envelope(self.kind, job_id=self.job_id, t=round(self.t, 6))
        record["ts"] = round(self.t, 6)  # the event's own clock, not serialization time
        record.update(self.payload)
        return json.dumps(record, sort_keys=True, default=str)


class Telemetry:
    """Event collector with an optional JSONL file sink.

    ``emit`` is thread-safe: the in-memory list append and the JSONL
    line write happen under one lock, so concurrent emitters (service
    handler threads, :class:`~repro.engine.handles.JobRunner` workers)
    never interleave partial lines or lose events.
    """

    def __init__(self, jsonl_path: str | Path | None = None) -> None:
        self.events: list[TelemetryEvent] = []
        self.jsonl_path = Path(jsonl_path) if jsonl_path else None
        self._lock = threading.Lock()

    def emit(self, kind: str, job_id: str | None = None, **payload: Any) -> TelemetryEvent:
        event = TelemetryEvent(kind=kind, job_id=job_id, t=wall_time(), payload=payload)
        with self._lock:
            self.events.append(event)
            if self.jsonl_path is not None:
                with open(self.jsonl_path, "a", encoding="utf-8") as stream:
                    stream.write(event.to_json() + "\n")
        return event

    def write_record(self, record: dict[str, Any]) -> None:
        """Append a pre-built envelope record (e.g. a shipped worker span)
        to the JSONL sink verbatim.

        Records do not join the in-memory event list — they are not
        engine events, they just share the file so ``trace export`` can
        rebuild a whole batch timeline from one artifact.  No-op without
        a sink.
        """
        if self.jsonl_path is None:
            return
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            with open(self.jsonl_path, "a", encoding="utf-8") as stream:
                stream.write(line + "\n")

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def of_kind(self, kind: str) -> list[TelemetryEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> dict[str, Any]:
        """Aggregate counters over everything emitted so far."""
        finishes = self.of_kind("job_finish")
        executed = [e for e in finishes if not e.payload.get("from_cache")]
        return {
            "jobs": self.count("job_queued") + self.count("cache_hit"),
            "cache_hits": self.count("cache_hit"),
            "executed": len(executed),
            "failed": sum(1 for e in finishes if e.payload.get("status") != "ok"),
            "compute_seconds": sum(e.payload.get("seconds", 0.0) for e in executed),
            "pool_unavailable": self.count("pool_unavailable"),
            "pool_broken": self.count("pool_broken"),
            "shm_attach_failed": self.count("shm_attach_failed"),
        }

    def render_summary(self) -> str:
        """One human line: job counts, cache traffic, compute time."""
        s = self.summary()
        parts = [
            f"{s['jobs']} jobs",
            f"{s['cache_hits']} cache hits",
            f"{s['executed']} executed",
            f"{s['failed']} failed",
            f"{s['compute_seconds']:.2f}s compute",
        ]
        if s["pool_unavailable"] or s["pool_broken"] or s["shm_attach_failed"]:
            parts.append("degraded to serial")
        return "engine: " + " | ".join(parts)
