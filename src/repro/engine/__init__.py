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

from .batch import BatchEntry, read_batch_file, run_batch
from .cache import ResultCache, cache_key, default_cache_dir
from .executor import Engine, JobTimeout, execute_job, retry_seed
from .handles import JobHandle, JobRunner
from .job import AlgorithmSpec, Job, JobResult
from .registry import (
    AlgorithmInfo,
    algorithm_info,
    algorithm_names,
    build_algorithm,
    register_algorithm,
)
from .telemetry import Telemetry, TelemetryEvent, Timer

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
