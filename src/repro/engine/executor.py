"""The job execution engine: one job, the worker pool, and the batch door.

:func:`execute_job` runs one :class:`~repro.engine.job.Job` in this
process.  :class:`WorkerPool` is the one owner of worker processes; both
job doors run on it: :class:`Engine` (a batch, results **in submission
order**) and :class:`~repro.engine.handles.JobRunner` (the service).
Design invariants:

* **Determinism** — a job's outcome depends only on its spec.  Workers
  reconstruct the per-job generator as ``LaggedFibonacciRandom(seed)``,
  which is bitwise-identical to :func:`repro.rng.spawn` in the parent, so
  ``jobs=1`` and ``jobs=N`` produce the same cuts and partitions.
* **Robustness** — a job runs once, under an optional wall-clock
  deadline (SIGALRM-based, covering pure-Python compute); a failure or a
  timeout yields a ``status="failed"`` result instead of an exception, so
  one bad job never sinks a batch, and is never cached.
* **Graceful degradation** — when the pool cannot start (restricted
  environments, missing semaphores) or breaks (a worker died), every job
  it has not finished runs in the thread that collects it, and telemetry
  records the downgrade.

A job carries its graph's worker-table entry, and every graph is
compiled to CSR once, in the parent.  A batch's graphs exist before its
pool starts, so its workers are born with them: the pool initializer
hands them the key -> graph table (inherited under fork, pickled once
per worker start under spawn and forkserver) and jobs carry only the
key.  A graph a pool gets after it started (the service's uploads) is
exported once as a compiled CSR segment (see :mod:`repro.graphs.shm`)
that workers map at zero copy cost; it is pickled with each job only
when the export or a worker's attach fails.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import sys
import threading
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..graphs.csr import csr_view
from ..graphs.graph import vertex_token
from ..obs import counter, current_run, gauge, histogram, obs_enabled, span
from ..obs.clock import monotonic_time
from ..obs.shipper import collect_shipment, merge_shipment
from ..obs.trace import detach_run
from ..rng import LaggedFibonacciRandom
from .cache import ResultCache, job_cache_key, lookup_result, store_result
from .job import AlgorithmSpec, Job, JobResult
from .registry import build_algorithm, import_algorithm
from .telemetry import Telemetry

if TYPE_CHECKING:
    from ..graphs.shm import SharedGraphSegment

__all__ = ["Engine", "JobTimeout", "PoolJob", "WorkerPool", "execute_job", "require_spec"]


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its deadline."""


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


def _failed(job: Job, error: str, seconds: float = 0.0, attempts: int = 0) -> JobResult:
    return JobResult(
        job_id=job.job_id,
        graph_key=job.graph_key,
        algorithm=job.algorithm.name,
        seed=job.seed,
        status="failed",
        cut=None,
        side0=(),
        seconds=seconds,
        attempts=attempts,
        error=error,
        tags=job.tags,
    )


def execute_job(job: Job, graph: Any) -> JobResult:
    """Run one job once, in this process, on its own seed."""
    try:
        algorithm = build_algorithm(job.algorithm)
    except Exception as exc:  # unknown name / bad params: fail, don't crash
        return _failed(job, f"{type(exc).__name__}: {exc}")
    began = monotonic_time()
    try:
        with _deadline(job.timeout):
            result = algorithm(graph, LaggedFibonacciRandom(job.seed))
    except JobTimeout as exc:
        return _failed(job, f"timeout: {exc}", monotonic_time() - began, attempts=1)
    except Exception as exc:  # noqa: BLE001 - robustness boundary by design
        return _failed(
            job, f"{type(exc).__name__}: {exc}", monotonic_time() - began, attempts=1
        )
    seconds = monotonic_time() - began
    return JobResult(
        job_id=job.job_id,
        graph_key=job.graph_key,
        algorithm=job.algorithm.name,
        seed=job.seed,
        status="ok",
        cut=result.cut,
        side0=_extract_side0(result),
        seconds=seconds,
        counters=_extract_counters(result),
        tags=job.tags,
    )


# -- worker-process plumbing -------------------------------------------------------

_WORKER_ATTACHED: dict[str, Any] = {}
_WORKER_GRAPHS: Mapping[str, Any] = {}

#: Error prefix marking "the worker could not attach the shm segment";
#: the pool re-runs such jobs on the pickled graph instead of failing them.
_SHM_ATTACH_PREFIX = "shm-attach: "

#: How often a worker checks that the process that owns its pool still lives.
_OWNER_POLL_SECONDS = 0.5


@dataclass(frozen=True)
class _PoolGraph:
    """A by-key handle to a graph the pool's workers started with."""

    key: str


def _worker_init(owner: int, graphs: Mapping[str, Any]) -> None:
    """Pool worker start-up: keep the pool's ``graphs``, and exit as soon
    as the pool's ``owner`` is gone.

    An idle worker blocks on the pool's call queue, whose write end its
    siblings hold too, so a SIGKILLed owner would leave it waiting for
    good, adopted by init.
    """
    global _WORKER_ATTACHED, _WORKER_GRAPHS
    _WORKER_ATTACHED = {}
    _WORKER_GRAPHS = graphs
    # A forked worker inherits the owner's run context; its spans reach
    # that run, and its JSONL sink, only as the owner merges them.
    detach_run()
    threading.Thread(
        target=_exit_with_owner, args=(owner, os.getppid()), name="owner-watch", daemon=True
    ).start()


def _exit_with_owner(owner: int, parent: int) -> None:
    """Exit once this worker is reparented or ``owner`` no longer runs.

    Under fork and spawn the owner is the parent, and the kernel
    reparents the worker the moment it dies.  Under forkserver the
    parent is the fork server, which outlives the owner as long as a
    worker holds its liveness pipe, so the owner's pid is checked too
    (it is gone once reaped).
    """
    tick = threading.Event()
    while os.getppid() == parent and _running(owner):
        tick.wait(_OWNER_POLL_SECONDS)
    os._exit(1)


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # it runs, under another user
        return True
    return True


def _close_worker_segments() -> None:
    """Detach every segment this worker attached (atexit, worker side)."""
    for segment, _graph in _WORKER_ATTACHED.values():
        segment.close()
    _WORKER_ATTACHED.clear()


def _is_shm_ref(entry: Any) -> bool:
    """Whether ``entry`` is a :class:`~repro.graphs.shm.ShmGraphRef`.

    Asked without importing the module: a ref exists only in a process
    that loaded it (the service's pool imports it before it forks, and
    unpickling a ref imports it under spawn).
    """
    shm = sys.modules.get("repro.graphs.shm")
    return shm is not None and isinstance(entry, shm.ShmGraphRef)


def _resolve_worker_graph(entry: Any) -> Any:
    """The worker-side graph for a job's graph-table ``entry``.

    A by-key handle names a graph the worker started with.  A shm ref is
    attached once per worker.  The segment object is cached
    alongside the rebuilt graph — it must outlive every zero-copy view
    into it — and detached via ``atexit`` so worker shutdown is quiet and
    deterministic.  Any other entry is the graph itself.
    """
    if isinstance(entry, _PoolGraph):
        return _WORKER_GRAPHS[entry.key]
    if not _is_shm_ref(entry):
        return entry
    cached = _WORKER_ATTACHED.get(entry.name)
    if cached is None:
        from ..graphs.shm import SharedGraphSegment

        if not _WORKER_ATTACHED:
            import atexit

            atexit.register(_close_worker_segments)
        segment = SharedGraphSegment.attach(entry.name)
        try:
            rebuilt = segment.graph()
        except Exception:
            # Rebuild failures after a successful attach must not leak
            # the mapping: the worker keeps serving other jobs.
            segment.close()
            raise
        cached = (segment, rebuilt)
        _WORKER_ATTACHED[entry.name] = cached
    return cached[1]


def _worker_run(job: Job, entry: Any) -> JobResult:
    attached = _is_shm_ref(entry)
    shared = attached or isinstance(entry, _PoolGraph)
    compiles = getattr(counter("csr_compiles_total"), "value", 0)
    # Everything this job does in the worker — shm attach included — is
    # collected as a registry delta plus span records and shipped back on
    # the result, so the parent's ledger covers the whole fleet.  Deltas
    # (not absolutes) make this correct under both fork and spawn: a
    # forked worker's inherited counter baselines cancel out.
    shipment: dict[str, Any] = {}
    with collect_shipment(shipment):
        if attached:
            from ..graphs.shm import ShmAttachError

            try:
                graph = _resolve_worker_graph(entry)
            except ShmAttachError as exc:
                # No shipment on attach failure: the job reruns and would
                # otherwise be double-counted.
                return _failed(job, f"{_SHM_ATTACH_PREFIX}{exc}")
        else:
            graph = _resolve_worker_graph(entry)
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
    otherwise prefer ``fork`` (no re-import in the workers) and fall
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
    """Create the process pool, its workers born with ``graphs``
    (separated out so tests can break it)."""
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_pool_start_method())
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_worker_init,
        initargs=(os.getpid(), graphs),
    )


def _end_pool(pool) -> None:
    """Shut a failed ``pool`` down without waiting, and kill its workers.

    A worker killed while it waited for work leaves the call queue's lock
    held, and a worker the pool started as it broke (spawn starts them on
    demand) then waits on that lock for good.  The interpreter's exit
    joins every child process, so such a worker would hang it.
    """
    processes = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()


class PoolJob:
    """One job handed to a :class:`WorkerPool`; :meth:`result` waits for it."""

    __slots__ = ("job", "graph", "accepted", "future", "finished", "_owner")

    def __init__(self, owner: "WorkerPool", job: Job, graph: Any, accepted: float) -> None:
        self.job = job
        self.graph = graph
        self.accepted = accepted
        self.future: Any = None  # None: the caller's thread runs the job
        self.finished: float | None = None
        self._owner = owner

    def result(self) -> JobResult:
        """The job's final result, run in this thread if the pool could not."""
        return self._owner._collect(self)

    def _stamp(self, future) -> None:
        self.finished = monotonic_time()


class WorkerPool:
    """The worker processes, graph segments and degrade rule of both doors.

    ``workers`` processes start with SIGINT blocked (Ctrl-C reaches the
    whole process group; the owner decides what stops): under fork all
    of them here, with the heap frozen (the workers' collections never
    write to the parent's objects, so its pages stay shared); under
    spawn and forkserver the pool starts them as submissions need them.
    ``close`` drains the pool; leaving a ``with`` block on an exception
    kills the workers instead.  ``workers=0`` starts none: every job
    then runs in the thread that collects it.

    ``graphs`` is the key -> graph table the workers start with: each is
    compiled to CSR here, before any worker starts, and a job on one of
    them carries only its key.  Any other graph key is exported to
    shared memory once, by its first job.

    One rule covers every way the pool can fail a job: it can't start
    (``pool_unavailable``), it broke (``pool_broken``, and it is dropped),
    or it refused the job; the job then runs in the collecting thread.
    A worker that cannot map a segment (``shm_attach_failed``) reruns
    the job on the pickled graph, as does every later job of that key.

    Queue wait, the ``engine_queue_wait_seconds`` histogram, is one
    measure for both doors: turnaround from the door accepting the job
    to its result, minus the job's compute seconds.

    ``span_sink`` also writes shipped worker spans to the telemetry
    JSONL file, so one batch file feeds ``repro-bisect trace export``.
    """

    def __init__(
        self,
        workers: int,
        telemetry: Telemetry,
        span_sink: bool = False,
        graphs: Mapping[str, Any] | None = None,
    ) -> None:
        self.telemetry = telemetry
        self._span_sink = telemetry if span_sink else None
        # Guards the pool, the exports, the segments and the shipment slots.
        self._lock = threading.Lock()
        self._graphs = dict(graphs or {})
        self._exports: dict[str, tuple[Any, Any]] = {}  # key -> (graph, entry)
        self._segments: dict[str, SharedGraphSegment] = {}
        self._slots: dict[int, int] = {}  # worker pid -> slot, first-seen order
        self._pool = self._start(workers) if workers else None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> bool:
        if exc_type is not None:
            # Ctrl-C (or any error) mid-batch: the results would be thrown
            # away, so don't wait for the running jobs.
            with self._lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                _end_pool(pool)
        self.close()
        return False

    def submit(self, job: Job, graph: Any, accepted: float | None = None) -> PoolJob:
        """Queue ``job`` on a worker; ``accepted`` is when its door took it."""
        pooled = PoolJob(self, job, graph, monotonic_time() if accepted is None else accepted)
        self._send(pooled, whole=False)
        return pooled

    def close(self, wait: bool = True) -> None:
        """Cancel queued work, shut the workers down and unlink every segment."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
        with self._lock:
            while self._segments:
                self._unlink(*self._segments.popitem())

    # -- internals ----------------------------------------------------------------

    def _start(self, workers: int):
        """The process pool, forked now; ``None`` when it cannot start."""
        pool = None
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for graph in self._graphs.values():
                csr_view(graph)  # compiled once, here, for every worker
            if not self._graphs:
                # Every graph of a pool born without any (the service's)
                # arrives by export: the workers inherit the module.
                from ..graphs import shm  # noqa: F401
            gc.freeze()
            pool = _make_pool(workers, self._graphs)
            # With fork, the first submission forks every worker at once.
            pool.submit(os.getpid).result()
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            if pool is not None:
                _end_pool(pool)
            self.telemetry.emit("pool_unavailable", error=f"{type(exc).__name__}: {exc}")
            counter("engine_pool_unavailable_total").inc()
            counter("engine_serial_fallbacks_total").inc()
            return None
        finally:
            gc.unfreeze()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.telemetry.emit("pool_created", method=_pool_start_method(), workers=workers)
        return pool

    def _send(self, pooled: PoolJob, whole: bool) -> None:
        """Queue ``pooled`` on the pool; leaves ``future`` unset without one."""
        pooled.finished = None
        refused = None
        # Submitting under the lock keeps every worker a submission starts
        # in the pool's process table before ``_refused`` can end the pool.
        with self._lock:
            pool = self._pool
            if pool is None:
                return
            graph = pooled.graph
            entry = graph if whole else self._entry(pooled.job.graph_key, graph)
            # Spawn and forkserver start a worker here when the queue needs one.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pooled.future = pool.submit(_worker_run, pooled.job, entry)
            except Exception as exc:  # noqa: BLE001 - the collecting thread runs it
                refused = exc
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if refused is not None:
            self._refused(refused)
            return
        pooled.future.add_done_callback(pooled._stamp)

    def _entry(self, key: str, graph: Any) -> Any:
        """The job's graph-table entry, exporting ``key`` once (lock held).

        The entry is a by-key handle for a graph the workers started
        with, else a shm ref, or the graph itself (shipped whole with
        every job) when the export failed or ``key`` was first used for
        another graph.
        """
        if self._graphs.get(key) is graph:
            return _PoolGraph(key)
        exported = self._exports.get(key)
        if exported is None:
            exported = self._exports[key] = (graph, self._export(key, graph))
        return exported[1] if exported[0] is graph else graph

    def _export(self, key: str, graph: Any) -> Any:
        from ..graphs.shm import SharedGraphSegment, ShmGraphRef

        try:
            segment = SharedGraphSegment.create(graph)
        except Exception as exc:  # noqa: BLE001 - unshareable: ship whole
            self.telemetry.emit(
                "shm_export_failed", graph_key=key, error=f"{type(exc).__name__}: {exc}"
            )
            return graph
        self._segments[key] = segment
        self.telemetry.emit("shm_export", graph_key=key, segment=segment.name, bytes=segment.size)
        counter("engine_shm_exports_total").inc()
        return ShmGraphRef(segment.name)

    def _ship_whole(self, key: str, graph: Any) -> None:
        """A worker could not map ``key``'s segment: ship its graph whole
        from now on, and release the segment."""
        with self._lock:
            exported = self._exports.get(key)
            if exported is None or exported[0] is not graph:
                return
            self._exports[key] = (graph, graph)
            segment = self._segments.pop(key, None)
        if segment is not None:
            self._unlink(key, segment)

    def _unlink(self, key: str, segment: SharedGraphSegment) -> None:
        segment.close()
        segment.unlink()
        self.telemetry.emit("shm_unlink", graph_key=key, segment=segment.name)

    def _refused(self, exc: Exception) -> None:
        """The pool failed a job.  A broken pool (a worker died, a pipe
        failed) serves no more jobs; anything else (a submit racing
        ``close``, a job the worker could not take) costs that job only."""
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, (BrokenExecutor, OSError)):
            return
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return  # another job (or close) got here first
        _end_pool(pool)
        self.telemetry.emit("pool_broken", error=f"{type(exc).__name__}: {exc}")
        counter("engine_pool_broken_total").inc()

    def _collect(self, pooled: PoolJob) -> JobResult:
        job, graph = pooled.job, pooled.graph
        while pooled.future is not None:
            future, pooled.future = pooled.future, None
            try:
                result = future.result()
            except Exception as exc:  # noqa: BLE001 - every job must resolve
                self._refused(exc)
                break
            if not self._attach_failed(result, job):
                with self._lock:
                    result = self._absorb(result)
                self._observe_wait(pooled, result, pooled.finished)
                return result
            # Same seed, same result: rerun with the graph pickled.
            self._ship_whole(job.graph_key, graph)
            self._send(pooled, whole=True)
        result = execute_job(job, graph)
        self._observe_wait(pooled, result, None)
        return result

    def _attach_failed(self, result: JobResult, job: Job) -> bool:
        """True, and recorded, when the worker could not map ``job``'s segment."""
        if result.status != "failed" or not (result.error or "").startswith(_SHM_ATTACH_PREFIX):
            return False
        self.telemetry.emit("shm_attach_failed", job.job_id, error=result.error)
        counter("engine_shm_attach_failed_total").inc()
        return True

    @staticmethod
    def _observe_wait(pooled: PoolJob, result: JobResult, finished: float | None) -> None:
        if obs_enabled():
            turnaround = (finished or monotonic_time()) - pooled.accepted
            histogram("engine_queue_wait_seconds").observe(max(0.0, turnaround - result.seconds))

    def _absorb(self, result: JobResult) -> JobResult:
        """Merge a worker result's observability shipment, then strip it
        (lock held).

        The shipping worker's pid maps to a stable slot number (first-seen
        order), which becomes the ``worker=<slot>`` label on attributed
        series and the exporter's timeline lane.
        """
        shipment = result.obs
        if not shipment:
            return result
        slot = self._slots.setdefault(shipment.get("pid", 0), len(self._slots))
        merge_shipment(shipment, slot)
        # When the run-context sink and the telemetry sink are the same
        # file (the CLI's --ledger + --telemetry wiring), merge_shipment
        # already wrote the records there; don't write them twice.
        sink, run = self._span_sink, current_run()
        if (
            sink is not None
            and sink.jsonl_path is not None
            and not (run is not None and run.jsonl_path == sink.jsonl_path)
        ):
            for record in shipment.get("spans", ()):
                sink.write_record(dict(record, worker=slot))
        if obs_enabled():
            counter("engine_worker_jobs_total", worker=str(slot)).inc()
            counter("engine_worker_busy_seconds_total", worker=str(slot)).inc(
                max(0.0, result.seconds)
            )
        return replace(result, obs=None)


class Engine:
    """Runs batches of jobs with caching and telemetry on a :class:`WorkerPool`.

    ``jobs`` is the worker-process count (1 = in-process serial).
    ``cache`` may be ``None`` (disabled), a :class:`ResultCache`, or a
    directory path.  ``timeout`` is the batch-wide deadline for jobs that
    leave theirs unset.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | None = None,
        telemetry: Telemetry | None = None,
        timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.timeout = timeout

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
                self._run_pending(pending, graphs, results)

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
        return replace(job, **changes) if changes else job

    def _run_pending(
        self,
        pending: list[tuple[int, Job, str | None]],
        graphs: Mapping[str, Any],
        results: list[JobResult | None],
    ) -> None:
        workers = min(self.jobs, len(pending))
        workers = workers if workers > 1 else 0
        if workers:
            # Each batch forks a fresh pool: import the algorithms first so
            # its workers inherit them instead of compiling them again.
            for name in sorted({job.algorithm.name for _, job, _ in pending}):
                import_algorithm(name)
        mode = "parallel" if workers else "serial"
        # The workers are born with the graphs the cache misses use, so a
        # batch exports nothing to shared memory.
        used = {job.graph_key: graphs[job.graph_key] for _, job, _ in pending}
        with WorkerPool(workers, self.telemetry, span_sink=True, graphs=used) as pool:
            submitted = []
            for index, job, key in pending:
                self.telemetry.emit("job_queued", job.job_id, mode=mode)
                submitted.append((index, key, pool.submit(job, graphs[job.graph_key])))
            # Cached as they land, so an interrupted batch keeps what finished.
            for index, key, pooled in _landing_order(submitted):
                results[index] = result = pooled.result()
                store_result(self.cache, key, result, self.telemetry)


def _landing_order(
    submitted: list[tuple[int, str | None, PoolJob]],
) -> Iterator[tuple[int, str | None, PoolJob]]:
    """``(index, key, pooled)`` entries in the order the pool finishes them,
    then the ones the pool did not take, in submission order."""
    by_future = {entry[2].future: entry for entry in submitted if entry[2].future is not None}
    in_thread = [entry for entry in submitted if entry[2].future is None]
    if by_future:  # a serial batch never loads concurrent.futures
        from concurrent.futures import as_completed

        for future in as_completed(by_future):
            yield by_future[future]
    yield from in_thread
