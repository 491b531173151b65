"""Unified tracing & metrics: spans, algorithm counters, run ledgers.

A zero-dependency instrumentation subsystem, on by default and disabled
entirely with ``REPRO_OBS=0``:

* :mod:`repro.obs.metrics` — process-wide counter/gauge/histogram
  registry cheap enough to leave on in hot loops (kernels accumulate
  local ints and flush once per pass/temperature);
* :mod:`repro.obs.trace` — nested wall-time spans
  (``with span("kl.pass"): ...``) plus the per-run context that scopes a
  ``run_id`` and an optional JSONL sink sharing the engine telemetry
  envelope;
* :mod:`repro.obs.ledger` — one summary JSON per run, content-addressed
  next to the result cache, schema-validated, and diffable;
* :mod:`repro.obs.dashboard` — ASCII rendering for the
  ``repro-bisect stats`` command.

The cardinal rule, enforced by the equivalence test matrix: *observing a
run never changes it.*  Instrumentation reads algorithm state; it never
draws from the RNG, never reorders iteration, never rounds a decision.
"""

from .. import _lazy_exports

# Every instrumented module imports from here, so names load with their
# defining module on first use: a span costs ``trace`` and ``metrics``,
# not the ledger, the profiler or the dashboards.
_EXPORTS = {
    ".accumulator": (
        "StreamingStats", "TailFit", "best_of_k_extrapolation", "fit_lower_tail",
    ),
    ".buildinfo": ("process_rss_bytes", "refresh_process_gauges", "set_build_info"),
    ".clock": ("monotonic_time", "wall_time"),
    ".dashboard": ("render_ledger", "render_ledger_diff"),
    ".ledger": (
        "LEDGER_SCHEMA", "build_ledger", "diff_ledgers", "ledger_dir",
        "load_ledger", "load_schema", "validate_ledger", "write_ledger",
    ),
    ".metrics": (
        "NOOP", "REGISTRY", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "counter", "gauge", "histogram", "histogram_quantile", "obs_enabled",
        "parse_series", "prometheus_text",
    ),
    ".profiler": ("SamplingProfiler", "maybe_profile", "profiling_enabled"),
    ".shipper": ("build_shipment", "collect_shipment", "merge_shipment"),
    ".timeline": (
        "export_chrome_trace", "read_event_records", "validate_chrome_trace",
        "write_chrome_trace",
    ),
    ".top": ("TopMonitor", "run_top"),
    ".trace": (
        "RunContext", "Span", "capture_spans", "current_run", "current_run_id",
        "envelope", "ingest_span_record", "new_run_id", "reset_span_totals",
        "run_context", "span", "span_totals",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "NOOP",
    "REGISTRY",
    "RunContext",
    "SamplingProfiler",
    "Span",
    "StreamingStats",
    "TailFit",
    "TopMonitor",
    "best_of_k_extrapolation",
    "build_ledger",
    "build_shipment",
    "capture_spans",
    "collect_shipment",
    "export_chrome_trace",
    "fit_lower_tail",
    "counter",
    "current_run",
    "current_run_id",
    "diff_ledgers",
    "envelope",
    "gauge",
    "histogram",
    "histogram_quantile",
    "ingest_span_record",
    "ledger_dir",
    "load_ledger",
    "load_schema",
    "maybe_profile",
    "merge_shipment",
    "monotonic_time",
    "new_run_id",
    "obs_enabled",
    "parse_series",
    "prometheus_text",
    "process_rss_bytes",
    "profiling_enabled",
    "read_event_records",
    "refresh_process_gauges",
    "render_ledger",
    "render_ledger_diff",
    "reset_span_totals",
    "run_context",
    "run_top",
    "set_build_info",
    "span",
    "span_totals",
    "validate_chrome_trace",
    "validate_ledger",
    "wall_time",
    "write_chrome_trace",
    "write_ledger",
]
