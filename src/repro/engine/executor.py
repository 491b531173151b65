"""The job execution engine: worker pool, timeouts, retries, cache, telemetry.

:class:`Engine` runs declarative :class:`~repro.engine.job.Job` specs and
returns :class:`~repro.engine.job.JobResult` values **in submission
order**.  Design invariants:

* **Determinism** — a job's outcome depends only on its spec.  Workers
  reconstruct the per-job generator as ``LaggedFibonacciRandom(seed)``,
  which is bitwise-identical to :func:`repro.rng.spawn` in the parent, so
  ``jobs=1`` and ``jobs=N`` produce the same cuts and partitions.
* **Robustness** — each attempt runs under an optional wall-clock
  deadline (SIGALRM-based, covering pure-Python compute); a failed or
  timed-out attempt is retried with a fresh seed derived from
  ``(seed, attempt)``; exhaustion yields a ``status="failed"`` result
  instead of an exception, so one bad job never sinks a batch.
* **Graceful degradation** — when the pool cannot be created (restricted
  environments, missing semaphores), the engine falls back to serial
  execution and records the downgrade in telemetry.

Graphs are passed to ``run`` in a separate ``graphs`` table keyed by
``Job.graph_key`` and shipped to each worker once via the pool
initializer, not once per job.  When shared-memory sharding is on (the
default — see :mod:`repro.graphs.shm`), a :class:`Graph` is exported
once as a compiled CSR segment and the workers receive only its name:
one compile per graph per batch, zero-copy array access in every
worker, and a per-worker pickle only as the fallback path.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from collections.abc import Mapping, Sequence
from dataclasses import replace
from typing import Any

from ..graphs.graph import vertex_token
from ..graphs.shm import SharedGraphSegment, ShmAttachError, ShmGraphRef, shm_enabled
from ..obs import counter, current_run, gauge, histogram, obs_enabled, span
from ..obs.clock import monotonic_time
from ..obs.shipper import collect_shipment, merge_shipment
from ..rng import LaggedFibonacciRandom
from .cache import ResultCache, job_cache_key, lookup_result, store_result
from .job import AlgorithmSpec, Job, JobResult
from .registry import build_algorithm
from .telemetry import Telemetry

__all__ = ["Engine", "JobTimeout", "absorb_shipment", "execute_job", "retry_seed"]

_MASK64 = (1 << 64) - 1
# Same MMIX LCG constants as the rng seed expansion; splitmix-style mixing.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_GOLDEN = 0x9E3779B97F4A7C15


class JobTimeout(Exception):
    """Raised inside a worker when a job attempt exceeds its deadline."""


def retry_seed(seed: int, attempt: int) -> int:
    """Deterministic fresh seed for retry ``attempt`` (1-based) of ``seed``."""
    mixed = (seed ^ (attempt * _GOLDEN)) & _MASK64
    return (mixed * _LCG_MULT + _LCG_INC) & _MASK64


class _deadline:
    """Context manager raising :class:`JobTimeout` after ``seconds``.

    Uses ``SIGALRM``, which interrupts pure-Python compute between
    bytecodes.  Silently inert when unsupported (no SIGALRM, or not on
    the main thread) — jobs then run without a deadline rather than
    failing outright.
    """

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self.armed = False
        self.previous = None

    def __enter__(self) -> "_deadline":
        if (
            self.seconds
            and self.seconds > 0
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        ):
            def _expire(signum, frame):
                raise JobTimeout(f"exceeded {self.seconds}s deadline")

            self.previous = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc_info) -> bool:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)
        return False


def _extract_counters(result: Any, nested: bool = True) -> dict[str, Any]:
    """Pull algorithm-specific progress counters off a result object.

    Covers the KL/FM pass protocol (``passes``, ``pass_gains`` — the cut
    trajectory, ``swaps``/``moves``), the SA move accounting
    (``temperatures``, ``moves_attempted``, ``moves_accepted``), and one
    level of compaction nesting (``coarse_``/``final_`` prefixes).
    """
    counters: dict[str, Any] = {}
    for name in (
        "initial_cut",
        "passes",
        "swaps",
        "moves",
        "temperatures",
        "moves_attempted",
        "moves_accepted",
        "projected_cut",
    ):
        value = getattr(result, name, None)
        if isinstance(value, int):
            counters[name] = value
    gains = getattr(result, "pass_gains", None)
    if isinstance(gains, list):
        counters["pass_gains"] = list(gains)
    if nested:
        for prefix in ("coarse", "final"):
            inner = getattr(result, f"{prefix}_result", None)
            if inner is not None:
                for k, v in _extract_counters(inner, nested=False).items():
                    counters[f"{prefix}_{k}"] = v
    return counters


def _extract_side0(result: Any) -> tuple[str, ...]:
    bisection = getattr(result, "bisection", None)
    side = getattr(bisection, "side", None)
    if side is None:
        return ()
    return tuple(sorted(vertex_token(v) for v in side(0)))


def require_spec(job: Job) -> None:
    """Raise ``TypeError`` unless ``job``'s algorithm is an :class:`AlgorithmSpec`."""
    if not isinstance(job.algorithm, AlgorithmSpec):
        raise TypeError(
            f"job {job.job_id!r} algorithm must be an AlgorithmSpec, "
            f"got {type(job.algorithm).__name__}"
        )


def execute_job(job: Job, graph: Any) -> JobResult:
    """Run one job to completion (attempts + retries) in this process."""
    try:
        algorithm = build_algorithm(job.algorithm)
    except Exception as exc:  # unknown name / bad params: fail, don't crash
        return JobResult(
            job_id=job.job_id,
            graph_key=job.graph_key,
            algorithm=job.algorithm.name,
            seed=job.seed,
            status="failed",
            cut=None,
            side0=(),
            seconds=0.0,
            attempts=0,
            error=f"{type(exc).__name__}: {exc}",
            tags=job.tags,
        )
    retries = job.retries or 0
    seeds: list[int] = []
    total = 0.0
    error: str | None = None
    for attempt in range(retries + 1):
        seed = job.seed if attempt == 0 else retry_seed(job.seed, attempt)
        seeds.append(seed)
        rng = LaggedFibonacciRandom(seed)
        began = monotonic_time()
        try:
            with _deadline(job.timeout):
                result = algorithm(graph, rng)
        except JobTimeout as exc:
            total += monotonic_time() - began
            error = f"timeout: {exc}"
            continue
        except Exception as exc:  # noqa: BLE001 - robustness boundary by design
            total += monotonic_time() - began
            error = f"{type(exc).__name__}: {exc}"
            continue
        total += monotonic_time() - began
        return JobResult(
            job_id=job.job_id,
            graph_key=job.graph_key,
            algorithm=job.algorithm.name,
            seed=job.seed,
            status="ok",
            cut=result.cut,
            side0=_extract_side0(result),
            seconds=total,
            attempts=attempt + 1,
            seeds_tried=tuple(seeds),
            counters=_extract_counters(result),
            tags=job.tags,
        )
    return JobResult(
        job_id=job.job_id,
        graph_key=job.graph_key,
        algorithm=job.algorithm.name,
        seed=job.seed,
        status="failed",
        cut=None,
        side0=(),
        seconds=total,
        attempts=len(seeds),
        seeds_tried=tuple(seeds),
        error=error,
        tags=job.tags,
    )


# -- worker-process plumbing -------------------------------------------------------

_WORKER_GRAPHS: Mapping[str, Any] = {}
_WORKER_ATTACHED: dict[str, Any] = {}

#: Error prefix marking "the worker could not attach the shm segment";
#: the parent re-runs such jobs serially on the pickled graph instead of
#: failing the batch.
_SHM_ATTACH_PREFIX = "shm-attach: "


def _worker_init(graphs: Mapping[str, Any]) -> None:
    global _WORKER_GRAPHS, _WORKER_ATTACHED
    _WORKER_GRAPHS = graphs
    _WORKER_ATTACHED = {}


def _close_worker_segments() -> None:
    """Detach every segment this worker attached (atexit, worker side)."""
    for segment, _graph in _WORKER_ATTACHED.values():
        segment.close()
    _WORKER_ATTACHED.clear()


def _resolve_worker_graph(key: str, entry: Any = None) -> Any:
    """The worker-side graph for ``key``, attaching shm refs once.

    ``entry`` is the job's graph-table entry when the job carries it
    (graphs that reached the parent after the pool forked); otherwise
    it comes from the table the pool initializer installed.  The segment
    object is cached alongside the rebuilt graph — it must outlive every
    zero-copy view into it — and detached via ``atexit`` so worker
    shutdown is quiet and deterministic.
    """
    if entry is None:
        entry = _WORKER_GRAPHS[key]
    if isinstance(entry, ShmGraphRef):
        cached = _WORKER_ATTACHED.get(entry.name)
        if cached is None:
            if not _WORKER_ATTACHED:
                import atexit

                atexit.register(_close_worker_segments)
            segment = SharedGraphSegment.attach(entry.name)
            try:
                rebuilt = segment.graph()
            except Exception:
                # Rebuild failures after a successful attach must not
                # leak the mapping: the parent retries this job serially
                # and the worker keeps serving other jobs.
                segment.close()
                raise
            cached = (segment, rebuilt)
            _WORKER_ATTACHED[entry.name] = cached
        return cached[1]
    return entry


def _worker_run(job: Job, entry: Any = None) -> JobResult:
    if entry is None:
        entry = _WORKER_GRAPHS.get(job.graph_key)
    shared = isinstance(entry, ShmGraphRef)
    compiles = getattr(counter("csr_compiles_total"), "value", 0)
    # Everything this job does in the worker — shm attach included — is
    # collected as a registry delta plus span records and shipped back on
    # the result, so the parent's ledger covers the whole fleet.  Deltas
    # (not absolutes) make this correct under both fork and spawn: a
    # forked worker's inherited counter baselines cancel out.
    shipment: dict[str, Any] = {}
    with collect_shipment(shipment):
        try:
            graph = _resolve_worker_graph(job.graph_key, entry)
        except ShmAttachError as exc:
            # No shipment on attach failure: the job reruns serially in
            # the parent and would otherwise be double-counted.
            return JobResult(
                job_id=job.job_id,
                graph_key=job.graph_key,
                algorithm=job.algorithm.name,
                seed=job.seed,
                status="failed",
                cut=None,
                side0=(),
                seconds=0.0,
                attempts=0,
                error=f"{_SHM_ATTACH_PREFIX}{exc}",
                tags=job.tags,
            )
        result = execute_job(job, graph)
    if shared:
        # Proof obligation for the compile-once contract: how many CSR
        # compiles this job triggered in its worker (should be zero).
        delta = getattr(counter("csr_compiles_total"), "value", 0) - compiles
        result.counters["worker_csr_compiles"] = delta
    if shipment:
        result = replace(result, obs=shipment)
    return result


def _pool_start_method() -> str:
    """The multiprocessing start method the worker pool should use.

    ``REPRO_START_METHOD`` overrides (must name an available method);
    otherwise prefer ``fork`` (no pickling of the graph table) and fall
    back to the platform default — *explicitly*, rather than handing
    ``get_context`` a ``None`` and hoping, so spawn-only platforms get
    the same seed derivation and telemetry as fork ones.
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_START_METHOD", "").strip()
    if override:
        if override not in methods:
            raise ValueError(
                f"REPRO_START_METHOD={override!r} is not available here "
                f"(choices: {', '.join(methods)})"
            )
        return override
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def _make_pool(workers: int, graphs: Mapping[str, Any]):
    """Create the process pool (separated out so tests can break it)."""
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_pool_start_method())
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_worker_init,
        initargs=(graphs,),
    )


def _export_graph(
    key: str,
    graph: Any,
    segments: dict[str, SharedGraphSegment],
    telemetry: Telemetry,
) -> Any:
    """The worker graph-table entry for ``graph``: a shm ref where possible.

    An exported segment is recorded in ``segments`` (keyed by graph key)
    for the caller to release with :func:`_release_segments`.  With shm
    off, or when the export fails, the entry is the graph itself, shipped
    whole exactly as before shm existed.
    """
    if not shm_enabled():
        return graph
    try:
        segments[key] = SharedGraphSegment.create(graph)
    except Exception as exc:  # noqa: BLE001 - unshareable: ship whole
        telemetry.emit(
            "shm_export_failed", graph_key=key, error=f"{type(exc).__name__}: {exc}"
        )
        return graph
    segment = segments[key]
    telemetry.emit("shm_export", graph_key=key, segment=segment.name, bytes=segment.size)
    counter("engine_shm_exports_total").inc()
    return ShmGraphRef(segment.name)


def _release_segments(
    segments: dict[str, SharedGraphSegment], telemetry: Telemetry
) -> None:
    """Close and unlink every exported segment (idempotent)."""
    while segments:
        key, segment = segments.popitem()
        segment.close()
        segment.unlink()
        telemetry.emit("shm_unlink", graph_key=key, segment=segment.name)


def _note_pool_unavailable(telemetry: Telemetry, exc: BaseException) -> None:
    """Record that no worker pool could start, so jobs run in this process."""
    telemetry.emit("pool_unavailable", error=f"{type(exc).__name__}: {exc}")
    counter("engine_pool_unavailable_total").inc()
    counter("engine_serial_fallbacks_total").inc()


def _note_pool_broken(telemetry: Telemetry, exc: BaseException) -> None:
    """Record that the pool broke mid-flight (a worker died)."""
    telemetry.emit("pool_broken", error=f"{type(exc).__name__}: {exc}")
    counter("engine_pool_broken_total").inc()


def _attach_failed(result: JobResult, job: Job, telemetry: Telemetry) -> bool:
    """True, and recorded, when the worker could not map ``job``'s segment."""
    if result.status != "failed" or not (result.error or "").startswith(_SHM_ATTACH_PREFIX):
        return False
    telemetry.emit("shm_attach_failed", job.job_id, error=result.error)
    counter("engine_shm_attach_failed_total").inc()
    return True


def absorb_shipment(
    result: JobResult, slots: dict[int, int], telemetry: Telemetry | None = None
) -> JobResult:
    """Merge a worker result's observability shipment, then strip it.

    The shipping worker's pid maps to a stable slot number (first-seen
    order in ``slots``), which becomes the ``worker=<slot>`` label on
    attributed series and the exporter's timeline lane.  With a
    ``telemetry`` sink, shipped span records also land in its JSONL file
    so a single batch file feeds ``repro-bisect trace export``; the
    service's runner passes none, so its sink keeps engine events only.
    """
    shipment = result.obs
    if not shipment:
        return result
    pid = shipment.get("pid", 0)
    slot = slots.setdefault(pid, len(slots))
    merge_shipment(shipment, slot)
    # When the run-context sink and the telemetry sink are the same
    # file (the CLI's --ledger + --telemetry wiring), merge_shipment
    # already wrote the records there; don't write them twice.
    run = current_run()
    if (
        telemetry is not None
        and telemetry.jsonl_path is not None
        and not (run is not None and run.jsonl_path == telemetry.jsonl_path)
    ):
        for record in shipment.get("spans", ()):
            telemetry.write_record(dict(record, worker=slot))
    if obs_enabled():
        counter("engine_worker_jobs_total", worker=str(slot)).inc()
        counter("engine_worker_busy_seconds_total", worker=str(slot)).inc(
            max(0.0, result.seconds)
        )
    return replace(result, obs=None)


class Engine:
    """Runs batches of jobs with caching, telemetry, and a worker pool.

    ``jobs`` is the worker-process count (1 = in-process serial).
    ``cache`` may be ``None`` (disabled), a :class:`ResultCache`, or a
    directory path.  ``timeout``/``retries`` are batch-wide defaults for
    jobs that leave theirs unset.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | None = None,
        telemetry: Telemetry | None = None,
        timeout: float | None = None,
        retries: int = 0,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.timeout = timeout
        self.retries = retries

    # -- public API ---------------------------------------------------------------

    def run(self, jobs: Sequence[Job], graphs: Mapping[str, Any]) -> list[JobResult]:
        """Execute ``jobs`` and return their results in submission order.

        Raises ``TypeError`` for a job whose algorithm is not an
        :class:`AlgorithmSpec` and ``KeyError`` for one whose graph key
        is not in ``graphs``.
        """
        jobs = [self._normalize(job, index) for index, job in enumerate(jobs)]
        for job in jobs:
            require_spec(job)
            if job.graph_key not in graphs:
                raise KeyError(f"job {job.job_id!r} references unknown graph "
                               f"{job.graph_key!r}")
        self.telemetry.emit("batch_start", jobs=len(jobs), workers=self.jobs)
        began = monotonic_time()

        results: list[JobResult | None] = [None] * len(jobs)
        with span("engine.batch", jobs=len(jobs), workers=self.jobs):
            pending: list[tuple[int, Job, str | None]] = []
            fingerprints: dict[str, str] = {}
            for index, job in enumerate(jobs):
                key = None
                if self.cache is not None:
                    key = job_cache_key(job, graphs[job.graph_key], fingerprints)
                if key is not None:
                    results[index] = lookup_result(self.cache, key, job, self.telemetry)
                    if results[index] is not None:
                        continue
                    counter("engine_cache_misses_total").inc()
                pending.append((index, job, key))

            if pending:
                self._run_pending(pending, jobs, graphs, results)

        wall = monotonic_time() - began
        for index, job in enumerate(jobs):
            result = results[index]
            self.telemetry.emit(
                "job_finish",
                job.job_id,
                status=result.status,
                cut=result.cut,
                seconds=round(result.seconds, 6),
                attempts=result.attempts,
                from_cache=result.from_cache,
                algorithm=result.algorithm,
                error=result.error,
            )
        self.telemetry.emit(
            "batch_finish",
            jobs=len(jobs),
            wall_seconds=round(wall, 6),
        )
        if obs_enabled():
            counter("engine_jobs_total").inc(len(jobs))
            fresh = [r for r in results if r is not None and not r.from_cache]
            counter("engine_jobs_failed_total").inc(
                sum(1 for r in fresh if not r.ok)
            )
            counter("engine_job_retries_total").inc(
                sum(max(0, r.attempts - 1) for r in fresh)
            )
            if fresh and wall > 0:
                busy = sum(r.seconds for r in fresh)
                gauge("engine_pool_utilization").set(
                    min(1.0, busy / (wall * self.jobs))
                )
        return results  # type: ignore[return-value]

    # -- internals ----------------------------------------------------------------

    def _normalize(self, job: Job, index: int) -> Job:
        changes: dict[str, Any] = {}
        if not job.job_id:
            changes["job_id"] = f"job{index}"
        if job.timeout is None and self.timeout is not None:
            changes["timeout"] = self.timeout
        if job.retries is None:
            changes["retries"] = self.retries
        return replace(job, **changes) if changes else job

    def _run_pending(
        self,
        pending: list[tuple[int, Job, str | None]],
        jobs: Sequence[Job],
        graphs: Mapping[str, Any],
        results: list[JobResult | None],
    ) -> None:
        parallel = self.jobs > 1 and len(pending) > 1
        segments: dict[str, SharedGraphSegment] = {}
        if parallel:
            needed = {job.graph_key for _, job, _ in pending}
            table = self._share_graphs(needed, graphs, segments)
            try:
                pool = _make_pool(min(self.jobs, len(pending)), table)
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                _note_pool_unavailable(self.telemetry, exc)
                _release_segments(segments, self.telemetry)
                parallel = False
            else:
                self.telemetry.emit(
                    "pool_created",
                    method=_pool_start_method(),
                    workers=min(self.jobs, len(pending)),
                )
        if parallel:
            try:
                pending = self._run_parallel(pool, pending, results)
            finally:
                # Unconditional teardown — normal exit, broken pool, or a
                # KeyboardInterrupt mid-batch must all leave /dev/shm clean.
                _release_segments(segments, self.telemetry)
        for index, job, key in pending:
            if not parallel:  # jobs handed back by the pool were queued there
                self.telemetry.emit("job_queued", job.job_id, mode="serial")
            self.telemetry.emit("job_start", job.job_id)
            result = execute_job(job, graphs[job.graph_key])
            results[index] = result
            store_result(self.cache, key, result, self.telemetry)

    def _share_graphs(
        self,
        needed: set[str],
        graphs: Mapping[str, Any],
        segments: dict[str, SharedGraphSegment],
    ) -> dict[str, Any]:
        """The worker graph table: shm refs where possible, graphs otherwise."""
        return {
            key: _export_graph(key, graphs[key], segments, self.telemetry)
            for key in sorted(needed, key=str)
        }

    def _run_parallel(
        self,
        pool,
        pending: list[tuple[int, Job, str | None]],
        results: list[JobResult | None],
    ) -> list[tuple[int, Job, str | None]]:
        """Run ``pending`` on ``pool``; returns jobs still needing serial runs."""
        from concurrent.futures import BrokenExecutor, as_completed

        fallback: list[tuple[int, Job, str | None]] = []
        queue_wait = histogram("engine_queue_wait_seconds") if obs_enabled() else None
        slots: dict[int, int] = {}  # worker pid -> stable slot, first-seen order
        try:
            with pool:
                futures = {}
                submitted = {}
                for index, job, key in pending:
                    self.telemetry.emit("job_queued", job.job_id, mode="parallel")
                    future = pool.submit(_worker_run, job)
                    futures[future] = (index, job, key)
                    submitted[future] = monotonic_time()
                for future in as_completed(futures):
                    index, job, key = futures[future]
                    result = absorb_shipment(future.result(), slots, self.telemetry)
                    if _attach_failed(result, job, self.telemetry):
                        # The worker could not map the segment (stale name,
                        # shm limits): degrade this job to the serial
                        # pickled-graph path — same seed, same result.
                        fallback.append((index, job, key))
                        continue
                    if queue_wait is not None:
                        # Turnaround minus compute approximates time spent
                        # waiting for a worker slot.
                        wait = monotonic_time() - submitted[future] - result.seconds
                        queue_wait.observe(max(0.0, wait))
                    results[index] = result
                    store_result(self.cache, key, result, self.telemetry)
        except (BrokenExecutor, OSError) as exc:
            # A worker died (or the pool broke mid-flight): finish the
            # unfinished jobs serially rather than failing the batch.
            # (Jobs already queued for shm-attach fallback have no result
            # either, so this sweep subsumes them.)
            _note_pool_broken(self.telemetry, exc)
            return [
                (index, job, key)
                for index, job, key in pending
                if results[index] is None
            ]
        return fallback
