"""Cross-process observability shipping: worker deltas merged into the parent.

Pool workers run in their own processes, so metrics they increment and
spans they finish would die with the worker.  This module closes that
gap in two halves:

* **Worker side** — :func:`collect_shipment` wraps one job execution,
  snapshots the worker's :data:`~repro.obs.metrics.REGISTRY` before and
  after, captures every span finished during the job, and packs the
  *delta* into a small JSON-safe payload (:func:`build_shipment`).
  Snapshotting the delta per job — not the absolute values — is what
  makes the scheme start-method agnostic: a forked worker inherits the
  parent's counter values, but inherited baselines cancel out of a
  before/after subtraction.
* **Parent side** — :func:`merge_shipment` folds a payload into the
  parent registry twice: once into the **bare** series, so fleet totals
  stay bit-for-bit comparable with a serial run of the same jobs (and
  ``stats --diff`` keeps working), and once under a ``worker=<slot>``
  label, so per-worker attribution survives.  Shipped spans are handed
  to :func:`repro.obs.trace.ingest_span_record`, which feeds the active
  run's ledger aggregation and JSONL sink.

Payloads are bounded (:data:`MAX_SPANS` span records and
:data:`MAX_SERIES` metric series per job, drops counted in the payload)
so a pathological job cannot balloon the result pickle.  Everything here
NOOPs when ``REPRO_OBS=0``: :func:`collect_shipment` leaves its output
dict empty and :func:`merge_shipment` returns immediately.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any

from .metrics import REGISTRY, Histogram, MetricsRegistry, obs_enabled, parse_series
from .trace import capture_spans, ingest_span_record

__all__ = [
    "MAX_SERIES",
    "MAX_SPANS",
    "SHIPMENT_VERSION",
    "build_shipment",
    "collect_shipment",
    "merge_shipment",
]

SHIPMENT_VERSION = 1

#: Per-job span-record cap; the overflow count ships as ``dropped_spans``.
MAX_SPANS = 256
#: Per-job metric-series cap across all three sections combined.
MAX_SERIES = 1024


def _counter_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


def _histogram_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for name, snap in after.items():
        prior = before.get(name)
        if prior is None or prior["buckets"] != snap["buckets"]:
            delta = dict(snap)
        else:
            delta = {
                "buckets": snap["buckets"],
                "counts": [a - b for a, b in zip(snap["counts"], prior["counts"])],
                "sum": snap["sum"] - prior["sum"],
                "count": snap["count"] - prior["count"],
            }
        if delta["count"]:
            delta["sum"] = round(delta["sum"], 6)
            out[name] = delta
    return out


def build_shipment(
    before: dict[str, Any],
    after: dict[str, Any],
    spans: list[dict[str, Any]],
    max_spans: int = MAX_SPANS,
    max_series: int = MAX_SERIES,
) -> dict[str, Any]:
    """Pack registry deltas plus captured span records into one payload.

    Counters and histograms are the before/after delta; gauges ship the
    job-end value (they are last-write-wins on merge).  Series beyond
    ``max_series`` (counters kept first, sorted order inside each
    section) and spans beyond ``max_spans`` are dropped and counted.
    """
    counters = _counter_delta(before["counters"], after["counters"])
    gauges = {
        name: value
        for name, value in after["gauges"].items()
        if value != before["gauges"].get(name)
    }
    histograms = _histogram_delta(before["histograms"], after["histograms"])

    dropped_series = 0
    budget = max_series
    sections: dict[str, dict[str, Any]] = {}
    for label, table in (
        ("counters", counters), ("histograms", histograms), ("gauges", gauges)
    ):
        if len(table) > budget:
            kept = dict(sorted(table.items())[:budget])
            dropped_series += len(table) - len(kept)
            table = kept
        budget -= len(table)
        sections[label] = table

    dropped_spans = max(0, len(spans) - max_spans)
    payload: dict[str, Any] = {
        "version": SHIPMENT_VERSION,
        "pid": os.getpid(),
        "counters": sections["counters"],
        "gauges": sections["gauges"],
        "histograms": sections["histograms"],
        "spans": spans[:max_spans],
    }
    if dropped_spans:
        payload["dropped_spans"] = dropped_spans
    if dropped_series:
        payload["dropped_series"] = dropped_series
    return payload


@contextmanager
def collect_shipment(out: dict[str, Any]):
    """Worker side: wrap one job; on exit ``out`` holds the shipment.

    When obs is disabled the body runs untouched and ``out`` stays
    empty — the caller can use falsiness to decide whether to attach
    anything to the result.  The shipment is built even when the body
    raises, so partially-executed work is still accounted for if the
    caller chooses to ship it.
    """
    if not obs_enabled():
        yield out
        return
    before = REGISTRY.snapshot()
    spans: list[dict[str, Any]] = []
    with capture_spans(spans):
        try:
            yield out
        finally:
            out.update(build_shipment(before, REGISTRY.snapshot(), spans))


def _merge_histogram(target: Histogram, snap: dict[str, Any]) -> None:
    """Fold a histogram delta snapshot into ``target``.

    Matching bucket layouts merge exactly.  On a layout mismatch (a
    worker running different code than the parent) each source bucket is
    refiled by its upper bound — count and sum stay exact, placement is
    approximate.
    """
    bounds = [float(b) for b in snap["buckets"]]
    if list(target.buckets) == bounds:
        for index, bucket_count in enumerate(snap["counts"]):
            target.counts[index] += bucket_count
    else:
        for bound, bucket_count in zip(bounds, snap["counts"]):
            if bucket_count:
                target.counts[bisect_left(target.buckets, bound)] += bucket_count
        overflow = snap["counts"][len(bounds)] if len(snap["counts"]) > len(bounds) else 0
        target.counts[len(target.buckets)] += overflow
    target.total += snap["sum"]
    target.count += snap["count"]


def merge_shipment(
    shipment: dict[str, Any],
    slot: int | str,
    registry: MetricsRegistry | None = None,
) -> None:
    """Parent side: dual-merge one worker shipment into ``registry``.

    Counter and histogram deltas land twice — on the bare series (so the
    fleet total equals what a serial run would have recorded) and on the
    same series with a ``worker=<slot>`` label (attribution).  Gauges
    are point-in-time worker state, so they land *only* under the worker
    label; folding them into the bare series would overwrite the
    parent's own value with whichever worker reported last.  Shipped
    span records go through :func:`~repro.obs.trace.ingest_span_record`.
    Merging is pure addition, so it is associative and commutative
    across shipments regardless of arrival order.
    """
    if not obs_enabled() or not shipment:
        return
    registry = registry if registry is not None else REGISTRY
    worker = str(slot)
    for series, delta in shipment.get("counters", {}).items():
        name, labels = parse_series(series)
        registry.counter(name, **labels).inc(delta)
        registry.counter(name, **{**labels, "worker": worker}).inc(delta)
    for series, snap in shipment.get("histograms", {}).items():
        name, labels = parse_series(series)
        buckets = tuple(snap["buckets"])
        _merge_histogram(registry.histogram(name, buckets=buckets, **labels), snap)
        _merge_histogram(
            registry.histogram(name, buckets=buckets, **{**labels, "worker": worker}),
            snap,
        )
    for series, value in shipment.get("gauges", {}).items():
        name, labels = parse_series(series)
        registry.gauge(name, **{**labels, "worker": worker}).set(value)
    dropped = shipment.get("dropped_spans", 0) + shipment.get("dropped_series", 0)
    if dropped:
        registry.counter("obs_shipment_dropped_total", worker=worker).inc(dropped)
    for record in shipment.get("spans", ()):
        ingest_span_record(dict(record, worker=slot))
