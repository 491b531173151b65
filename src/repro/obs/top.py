"""``repro-bisect top``: a live, stdlib-only TTY view of a running fleet.

Two data sources, one screen:

* **Local mode** — tail a telemetry JSONL file that a concurrent
  ``run``/``table``/``study`` invocation is appending to (its
  ``--telemetry`` flag).  Batch progress, jobs/sec, failure and
  cache-hit counts, and the ETA all derive from the engine's own event
  stream (:func:`sample_telemetry`).
* **Service mode** — poll a ``repro-bisect serve`` instance's
  ``/metrics`` endpoint (``--url``) and render counter rates, cache-hit
  ratio, per-worker utilization (the shipped
  ``engine_worker_busy_seconds_total{worker=…}`` series), and
  queue-wait percentiles from the scraped histogram
  (:func:`sample_metrics_text`).

Rendering is plain ANSI: one cursor-home escape per frame, no curses,
so it works in CI logs (``--once`` prints a single frame and exits) and
over ssh alike.  All clock reads go through :mod:`repro.obs.clock`; the
refresh sleep is the only wait.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .ascii import horizontal_bars, sparkline
from .clock import monotonic_time
from .metrics import histogram_quantile

__all__ = [
    "TopMonitor",
    "parse_prometheus_text",
    "render_frame",
    "run_top",
    "sample_metrics_text",
    "sample_telemetry",
]

_METRIC_LINE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+([0-9eE+.\-]+|NaN|[+-]Inf)$'
)
_LE_LABEL = re.compile(r'le="([^"]+)"')


def parse_prometheus_text(text: str) -> dict[str, Any]:
    """Parse the Prometheus text format into scalars and histograms.

    Returns ``{"scalars": {series: value}, "histograms": {series:
    {"buckets": [...], "counts": [...], "sum": s, "count": n}}}`` —
    histogram bucket counts are de-cumulated back to the per-bucket
    layout :func:`repro.obs.metrics.histogram_quantile` expects.
    """
    scalars: dict[str, float] = {}
    raw_buckets: dict[str, list[tuple[float, float]]] = {}
    sums: dict[str, float] = {}
    counts: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        if match is None:
            continue
        name, labels, value_text = match.groups()
        try:
            value = float(value_text)
        except ValueError:
            continue
        labels = labels or ""
        if name.endswith("_bucket"):
            le = _LE_LABEL.search(labels)
            if le is None:
                continue
            base = name[: -len("_bucket")]
            series = base + _LE_LABEL.sub("", labels).replace(",}", "}").replace(
                "{}", ""
            ).rstrip(",")
            bound = float("inf") if le.group(1) in ("+Inf", "inf") else float(le.group(1))
            raw_buckets.setdefault(series, []).append((bound, value))
        elif name.endswith("_sum"):
            sums[name[: -len("_sum")] + labels] = value
        elif name.endswith("_count"):
            counts[name[: -len("_count")] + labels] = value
        else:
            scalars[name + labels] = value
    histograms: dict[str, Any] = {}
    for series, pairs in raw_buckets.items():
        pairs.sort(key=lambda p: p[0])
        bounds = [b for b, _ in pairs if b != float("inf")]
        cumulative = [c for _, c in pairs]
        per_bucket = [
            c - (cumulative[i - 1] if i else 0.0) for i, c in enumerate(cumulative)
        ]
        histograms[series] = {
            "buckets": bounds,
            "counts": [int(c) for c in per_bucket],
            "sum": sums.get(series, 0.0),
            "count": int(counts.get(series, cumulative[-1] if cumulative else 0)),
        }
    return {"scalars": scalars, "histograms": histograms}


def sample_metrics_text(text: str) -> dict[str, Any]:
    """One sample of fleet state from a ``/metrics`` scrape."""
    parsed = parse_prometheus_text(text)
    scalars = parsed["scalars"]

    def total(name: str) -> float:
        return sum(v for k, v in scalars.items() if k == name or k.startswith(name + "{"))

    workers: dict[str, dict[str, float]] = {}
    for series, value in scalars.items():
        match = re.match(r'^engine_worker_(busy_seconds|jobs)_total\{worker="([^"]+)"\}$', series)
        if match:
            field, slot = match.groups()
            workers.setdefault(slot, {})[field] = value
    hits = total("engine_cache_hits_total")
    misses = total("engine_cache_misses_total")
    return {
        "source": "metrics",
        "jobs_total": total("engine_jobs_total"),
        "jobs_failed": total("engine_jobs_failed_total"),
        "cache_hits": hits,
        "cache_lookups": hits + misses,
        "requests_total": total("service_requests_total"),
        "busy_by_worker": {
            slot: fields.get("busy_seconds", 0.0) for slot, fields in workers.items()
        },
        "jobs_by_worker": {
            slot: fields.get("jobs", 0.0) for slot, fields in workers.items()
        },
        "queue_wait": parsed["histograms"].get("engine_queue_wait_seconds"),
        "uptime": scalars.get("repro_process_uptime_seconds"),
        "rss_bytes": scalars.get("repro_process_rss_bytes"),
    }


def sample_telemetry(path: str | Path) -> dict[str, Any]:
    """One sample of batch state from a telemetry JSONL file."""
    queued = finished = failed = cache_hits = batch_jobs = 0
    compute = 0.0
    batch_done = False
    finish_times: list[float] = []
    workers: dict[str, float] = {}
    try:
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                kind = record.get("kind")
                if kind == "batch_start":
                    batch_jobs += int(record.get("jobs", 0))
                elif kind == "job_queued":
                    queued += 1
                elif kind == "cache_hit":
                    cache_hits += 1
                elif kind == "job_finish":
                    finished += 1
                    compute += float(record.get("seconds", 0.0) or 0.0)
                    if record.get("status") != "ok":
                        failed += 1
                    ts = record.get("ts")
                    if isinstance(ts, (int, float)):
                        finish_times.append(ts)
                elif kind == "batch_finish":
                    batch_done = True
                elif kind == "span" and record.get("worker") is not None:
                    slot = str(record["worker"])
                    workers[slot] = workers.get(slot, 0.0) + float(
                        record.get("seconds", 0.0) or 0.0
                    )
    except OSError:
        pass
    return {
        "source": "telemetry",
        "batch_jobs": batch_jobs,
        "queued": queued,
        "finished": finished,
        "failed": failed,
        "cache_hits": cache_hits,
        "compute_seconds": compute,
        "batch_done": batch_done,
        "finish_times": finish_times,
        "busy_by_worker": workers,
    }


class TopMonitor:
    """Accumulates successive samples and derives rates/ETA for rendering."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, dict[str, Any]]] = []
        self.rate_history: list[float] = []
        self.started = monotonic_time()

    def push(self, sample: dict[str, Any]) -> dict[str, Any]:
        now = monotonic_time()
        self.samples.append((now, sample))
        if len(self.samples) > 120:
            del self.samples[: len(self.samples) - 120]
        state = dict(sample)
        state["elapsed"] = now - self.started
        state["rate"] = self._rate(now)
        self.rate_history.append(state["rate"])
        if len(self.rate_history) > 60:
            del self.rate_history[: len(self.rate_history) - 60]
        state["rate_history"] = list(self.rate_history)
        state["eta"] = self._eta(state)
        return state

    def _progress_of(self, sample: dict[str, Any]) -> float:
        if sample.get("source") == "telemetry":
            return sample.get("finished", 0) + sample.get("cache_hits", 0)
        return sample.get("jobs_total", 0.0)

    def _rate(self, now: float) -> float:
        if len(self.samples) < 2:
            return 0.0
        # Rate over a ~10-sample trailing window, not since start, so the
        # display reacts to stalls.
        t0, first = self.samples[max(0, len(self.samples) - 10)]
        t1, last = self.samples[-1]
        if t1 <= t0:
            return 0.0
        return max(
            0.0, (self._progress_of(last) - self._progress_of(first)) / (t1 - t0)
        )

    def _eta(self, state: dict[str, Any]) -> float | None:
        if state.get("source") != "telemetry":
            return None
        total = state.get("batch_jobs", 0)
        done = state.get("finished", 0) + state.get("cache_hits", 0)
        if not total or done >= total:
            return 0.0 if total else None
        if not state.get("rate"):
            return None
        return (total - done) / state["rate"]


def _fmt_seconds(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _progress_bar(done: float, total: float, width: int = 38) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(min(1.0, done / total) * width))
    return "#" * filled + "-" * (width - filled)


def render_frame(state: dict[str, Any], width: int = 78) -> str:
    """One full dashboard frame as plain text (no escape codes)."""
    lines: list[str] = []
    title = "repro-bisect top"
    stamp = f"t+{_fmt_seconds(state.get('elapsed', 0.0))}"
    lines.append(f"{title}{' ' * max(1, width - len(title) - len(stamp))}{stamp}")
    lines.append("=" * width)

    if state.get("source") == "telemetry":
        total = state.get("batch_jobs", 0)
        done = state.get("finished", 0) + state.get("cache_hits", 0)
        lines.append(
            f"batch    [{_progress_bar(done, total)}] {done}/{total or '?'} jobs"
            + ("  (done)" if state.get("batch_done") else "")
        )
        lines.append(
            f"jobs/sec {state.get('rate', 0.0):7.2f}   "
            f"failed {state.get('failed', 0)}   "
            f"cache hits {state.get('cache_hits', 0)}   "
            f"compute {_fmt_seconds(state.get('compute_seconds', 0.0))}"
        )
        lines.append(f"eta      {_fmt_seconds(state.get('eta'))}")
    else:
        lines.append(
            f"jobs     {state.get('jobs_total', 0.0):g} total   "
            f"{state.get('jobs_failed', 0.0):g} failed   "
            f"requests {state.get('requests_total', 0.0):g}"
        )
        lookups = state.get("cache_lookups", 0.0)
        ratio = state.get("cache_hits", 0.0) / lookups if lookups else 0.0
        lines.append(
            f"jobs/sec {state.get('rate', 0.0):7.2f}   "
            f"cache-hit rate {ratio:6.1%} ({state.get('cache_hits', 0.0):g}/{lookups:g})"
        )
        queue = state.get("queue_wait")
        if queue and queue.get("count"):
            quantiles = [
                histogram_quantile(queue["buckets"], queue["counts"], q)
                for q in (0.5, 0.9, 0.99)
            ]
            rendered = "  ".join(
                f"p{int(q * 100)}={_fmt_seconds(v)}"
                for q, v in zip((0.5, 0.9, 0.99), quantiles)
            )
            lines.append(f"queue    {rendered}  ({queue['count']} waits)")
        extras = []
        if state.get("uptime") is not None:
            extras.append(f"uptime {_fmt_seconds(state['uptime'])}")
        if state.get("rss_bytes"):
            extras.append(f"rss {state['rss_bytes'] / 1e6:.0f}MB")
        if extras:
            lines.append("server   " + "   ".join(extras))

    history = state.get("rate_history", [])
    if len(history) > 1:
        lines.append(f"rate     {sparkline(history[-width + 10:])}")

    busy = state.get("busy_by_worker") or {}
    if busy:
        lines.append("-" * width)
        lines.append("per-worker busy seconds")
        labels = [f"worker {slot}" for slot in sorted(busy, key=str)]
        values = [round(busy[slot], 3) for slot in sorted(busy, key=str)]
        lines.append(horizontal_bars(labels, values, width=max(10, width - 24)))
    return "\n".join(lines)


def _fetch_metrics(url: str, timeout: float = 5.0) -> str:
    from urllib.request import urlopen

    target = url.rstrip("/")
    if not target.endswith("/metrics"):
        target += "/metrics"
    with urlopen(target, timeout=timeout) as response:  # noqa: S310 - user-given URL
        return response.read().decode("utf-8", "replace")


def run_top(
    events: str | None = None,
    url: str | None = None,
    interval: float = 1.0,
    once: bool = False,
    frames: int | None = None,
    stream=None,
) -> int:
    """Drive the dashboard loop; returns a process exit code.

    Exactly one of ``events`` (telemetry JSONL path) or ``url`` (service
    base URL) must be given.  ``once`` renders a single frame without
    clearing the screen — the CI/testing mode; ``frames`` bounds the
    loop for tests.
    """
    import sys
    import time

    out = stream if stream is not None else sys.stdout
    if (events is None) == (url is None):
        print("top: give exactly one of EVENTS or --url", file=sys.stderr)
        return 2
    monitor = TopMonitor()
    rendered = 0
    while True:
        try:
            if events is not None:
                sample = sample_telemetry(events)
            else:
                sample = sample_metrics_text(_fetch_metrics(url))
        except OSError as exc:
            print(f"top: cannot sample {url or events}: {exc}", file=sys.stderr)
            return 1
        state = monitor.push(sample)
        frame = render_frame(state)
        if once:
            print(frame, file=out)
            return 0
        # Home the cursor and clear to end of screen; cheaper than a full
        # clear and avoids flicker.
        print(f"\x1b[H\x1b[J{frame}", file=out, flush=True)
        rendered += 1
        if frames is not None and rendered >= frames:
            return 0
        if state.get("batch_done") and state.get("source") == "telemetry":
            print("batch finished", file=out)
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 130
