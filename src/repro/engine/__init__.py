"""Parallel partitioning engine: declarative jobs, worker pool, cache, telemetry.

The bench harness's best-of-R-starts protocol is embarrassingly parallel;
this subsystem turns each start into a :class:`Job` (graph ref +
algorithm spec + derived seed) and fans jobs out over a
``multiprocessing`` worker pool, with results guaranteed bitwise
identical to serial execution.  On top sit a content-addressed on-disk
result cache (so repeated table regenerations are near-free), per-job
timeout/retry robustness, and structured JSONL telemetry.

Entry points: :class:`Engine` (run jobs), :class:`AlgorithmSpec` /
:func:`build_algorithm` (the algorithm registry), :class:`ResultCache`,
:class:`Telemetry` / :class:`Timer`, and the ``repro-bisect batch`` spec
helpers in :mod:`repro.engine.batch`.
"""

from .. import _lazy_exports

_EXPORTS = {
    ".batch": ("BatchEntry", "read_batch_file", "run_batch"),
    ".cache": ("ResultCache", "cache_key", "default_cache_dir"),
    ".executor": ("Engine", "JobTimeout", "execute_job", "retry_seed"),
    ".handles": ("JobHandle", "JobRunner"),
    ".job": ("AlgorithmSpec", "Job", "JobResult"),
    ".registry": (
        "AlgorithmInfo", "algorithm_info", "algorithm_names", "build_algorithm",
        "register_algorithm",
    ),
    ".telemetry": ("Telemetry", "TelemetryEvent", "Timer"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AlgorithmInfo",
    "AlgorithmSpec",
    "BatchEntry",
    "Engine",
    "Job",
    "JobHandle",
    "JobResult",
    "JobRunner",
    "JobTimeout",
    "ResultCache",
    "Telemetry",
    "TelemetryEvent",
    "Timer",
    "algorithm_info",
    "algorithm_names",
    "build_algorithm",
    "cache_key",
    "default_cache_dir",
    "execute_job",
    "read_batch_file",
    "register_algorithm",
    "retry_seed",
    "run_batch",
]
