"""Incremental job execution: handles, cancellation, and a FIFO queue.

:class:`~repro.engine.executor.Engine` runs a *batch* to completion and
returns; a long-running front door (the HTTP service, an interactive
session) instead needs to **submit jobs one at a time, poll them, and
cancel the ones nobody is waiting for any more**.  :class:`JobRunner`
provides that shape on top of the same primitives the batch engine uses —
:func:`~repro.engine.executor.execute_job`, the content-addressed
:class:`~repro.engine.cache.ResultCache`, and
:class:`~repro.engine.telemetry.Telemetry` — so a job produces the same
result bit for bit whichever door it came through.

Design points:

* **Handles.**  ``submit`` returns a :class:`JobHandle` immediately; the
  caller polls ``handle.state`` / ``handle.result`` or blocks on
  ``handle.wait()``.  States move ``queued -> running -> done`` with a
  ``cancelled`` exit from ``queued`` only — a job that has started runs
  to the end.
* **One FIFO queue.**  Dispatchers take jobs in submission order.
* **Cache, without double execution.**  A submission whose cache key is
  already stored resolves instantly (``from_cache=True``, no worker
  round-trip).  Identical jobs racing on different workers serialize on a
  per-key lock and re-check the cache before executing, so a result is
  computed once no matter how many clients ask for it concurrently.
* **Processes behind dispatcher threads.**  ``workers`` dispatcher
  threads own the queue, the per-key lock, cancellation and telemetry;
  each hands its job to a worker process of the batch engine's own pool
  (:func:`~repro.engine.executor._make_pool`, forked in ``__init__``
  before any thread starts) and blocks until it returns.  Compute never
  holds the server process's GIL, so HTTP handler threads answer polls
  while jobs run.  A graph is exported to shared memory once, the first
  time a job needs it, and the job carries the segment's ref (graphs
  arrive after the fork); workers attach each segment once.  Worker
  metrics and spans come back on the result and merge through
  :func:`~repro.engine.executor.absorb_shipment`, as in a batch.  When
  the pool cannot start (or breaks), jobs run on the dispatcher threads
  and the runner emits ``pool_unavailable`` (``pool_broken``); a job the
  pool refuses for any other reason runs on its dispatcher thread, so
  every handle resolves.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
from collections import deque
from typing import Any

from ..graphs.shm import SharedGraphSegment
from ..obs import counter, histogram, obs_enabled
from ..obs.clock import monotonic_time, wall_time
from .cache import ResultCache, job_cache_key, lookup_result, store_result
from .executor import (
    _attach_failed,
    _export_graph,
    _make_pool,
    _note_pool_broken,
    _note_pool_unavailable,
    _pool_start_method,
    _release_segments,
    _worker_run,
    absorb_shipment,
    execute_job,
    require_spec,
)
from .job import Job, JobResult
from .telemetry import Telemetry

__all__ = ["JobHandle", "JobRunner"]

#: Handle lifecycle states.
QUEUED, RUNNING, DONE, CANCELLED = "queued", "running", "done", "cancelled"


class JobHandle:
    """One submitted job: state, result, timestamps, and a cancel hook."""

    __slots__ = (
        "job",
        "cache_key",
        "state",
        "result",
        "submitted_at",
        "started_at",
        "finished_at",
        "queue_seconds",
        "_graph",
        "_submitted_mono",
        "_done",
        "_lock",
    )

    def __init__(self, job: Job, key: str | None) -> None:
        self.job = job
        self.cache_key = key
        self._graph: Any = None
        self.state = QUEUED
        self.result: JobResult | None = None
        self.submitted_at = wall_time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.queue_seconds = 0.0
        self._submitted_mono = monotonic_time()
        self._done = threading.Event()
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self.state in (DONE, CANCELLED)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes (or ``timeout``); True when done."""
        return self._done.wait(timeout)

    def cancel(self) -> bool:
        """Cancel if still queued; True when the cancellation took effect.

        A running or finished job is left untouched.
        """
        with self._lock:
            if self.state != QUEUED:
                return False
            self.state = CANCELLED
            self.finished_at = wall_time()
        self._done.set()
        return True

    # -- runner-side transitions (runner holds its own dispatch lock) ---------------

    def _start(self) -> bool:
        """queued -> running; False when the handle was cancelled first."""
        with self._lock:
            if self.state != QUEUED:
                return False
            self.state = RUNNING
            self.started_at = wall_time()
            self.queue_seconds = monotonic_time() - self._submitted_mono
        return True

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            self.result = result
            self.state = DONE
            self.finished_at = wall_time()
        self._done.set()

    def __repr__(self) -> str:
        return f"JobHandle({self.job.job_id!r}, state={self.state!r})"


class JobRunner:
    """Shared worker pool executing submitted jobs in FIFO order.

    ``workers`` is both the dispatcher-thread and the worker-process
    count.  ``workers=0`` creates neither; tests drive dispatch
    synchronously with :meth:`step`, which runs the job in this process
    and makes ordering assertions deterministic without sleeps.
    ``close()`` stops the dispatchers (running jobs finish; queued jobs
    are cancelled), shuts the pool down and unlinks every segment.
    """

    def __init__(
        self,
        workers: int = 2,
        cache: ResultCache | str | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.workers = workers
        self._queue: deque[JobHandle] = deque()
        self._dispatch = threading.Condition()
        self._closed = False
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_guard = threading.Lock()
        # Guards the pool, the exports and the shipment slots.
        self._pool_lock = threading.Lock()
        self._exports: dict[str, tuple[Any, Any]] = {}  # key -> (graph, entry)
        self._segments: dict[str, SharedGraphSegment] = {}
        self._slots: dict[int, int] = {}  # worker pid -> slot, first-seen order
        # Fork before the dispatcher threads exist (and, in the service,
        # before the HTTP threads): a child forked from a multi-threaded
        # parent can inherit a lock some other thread held.
        self._pool = self._start_pool(workers) if workers else None
        self._threads = [
            threading.Thread(target=self._worker_loop, name=f"job-runner-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- public API ---------------------------------------------------------------

    def submit(self, job: Job, graph: Any) -> JobHandle:
        """Queue ``job`` against ``graph``; returns its handle immediately.

        A cache hit resolves the handle before it ever reaches a worker.
        Raises ``TypeError`` when the algorithm is not an ``AlgorithmSpec``.
        """
        require_spec(job)
        key = None
        if self.cache is not None:
            key = job_cache_key(job, graph)
        handle = JobHandle(job, key)
        if key is not None:
            hit = lookup_result(self.cache, key, job, self.telemetry)
            if hit is not None:
                handle._start()
                handle._finish(hit)
                return handle
            counter("engine_cache_misses_total").inc()
        handle._graph = graph
        with self._dispatch:
            if self._closed:
                raise RuntimeError("runner is closed")
            self._queue.append(handle)
            self.telemetry.emit("job_queued", job.job_id, mode="runner")
            self._dispatch.notify()
        return handle

    def step(self) -> JobHandle | None:
        """Synchronously run the next queued job (``workers=0`` test mode).

        Returns the handle it processed, or ``None`` when the queue is
        empty.  Cancelled handles are skipped (and returned, so callers
        can observe the skip).
        """
        with self._dispatch:
            handle = self._pop_next()
        if handle is None:
            return None
        self._process(handle)
        return handle

    def pending(self) -> int:
        """Jobs currently queued (excluding running ones)."""
        with self._dispatch:
            return len(self._queue)

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; cancel queued jobs; release pool and segments.

        ``wait`` joins the dispatcher threads and waits for running jobs
        before the segments are unlinked.
        """
        with self._dispatch:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._dispatch.notify_all()
        for handle in leftovers:
            handle.cancel()
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        with self._pool_lock:
            _release_segments(self._segments, self.telemetry)

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # -- internals ----------------------------------------------------------------

    def _start_pool(self, workers: int):
        """The worker-process pool, forked now; ``None`` when it cannot start."""
        pool = None
        # Workers inherit SIGINT blocked: Ctrl-C reaches a server's whole
        # process group, and its close() drains the pool instead.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        # Workers inherit the heap frozen: their collections never write
        # to its objects, so its pages stay shared with this process.
        gc.freeze()
        try:
            pool = _make_pool(workers, {})
            # With fork, the first submission forks every worker at once.
            pool.submit(os.getpid).result()
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            _note_pool_unavailable(self.telemetry, exc)
            return None
        finally:
            gc.unfreeze()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.telemetry.emit("pool_created", method=_pool_start_method(), workers=workers)
        return pool

    def _graph_entry(self, key: str, graph: Any) -> Any:
        """The worker-table entry for ``graph``, exporting its key once.

        The entry is a shm ref, or the graph itself (shipped whole with
        every job) when the export failed or ``key`` was first used for
        another graph.
        """
        with self._pool_lock:
            exported = self._exports.get(key)
            if exported is None:
                entry = _export_graph(key, graph, self._segments, self.telemetry)
                self._exports[key] = exported = (graph, entry)
        return exported[1] if exported[0] is graph else graph

    def _ship_whole(self, key: str, graph: Any) -> None:
        """A worker could not map ``key``'s segment: ship its graph whole
        from now on, and release the segment."""
        with self._pool_lock:
            exported = self._exports.get(key)
            if exported is None or exported[0] is not graph:
                return
            self._exports[key] = (graph, graph)
            stale = {key: self._segments.pop(key)} if key in self._segments else {}
            _release_segments(stale, self.telemetry)

    def _execute(self, job: Job, graph: Any) -> JobResult:
        """Run ``job`` on a worker process, or in this thread without a pool."""
        from concurrent.futures import BrokenExecutor

        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return execute_job(job, graph)
        entry = self._graph_entry(job.graph_key, graph)
        try:
            result = pool.submit(_worker_run, job, entry).result()
            if _attach_failed(result, job, self.telemetry):
                # Same seed, same result: rerun with the graph pickled.
                self._ship_whole(job.graph_key, graph)
                result = pool.submit(_worker_run, job, graph).result()
        except Exception as exc:  # noqa: BLE001 - every handle must resolve
            # A broken pool (a worker died, a pipe failed) serves no more
            # jobs; anything else (a submit racing close(), a job the
            # worker could not take) runs this one job here.
            if isinstance(exc, (BrokenExecutor, OSError)):
                self._drop_pool(pool, exc)
            return execute_job(job, graph)
        with self._pool_lock:
            return absorb_shipment(result, self._slots)

    def _drop_pool(self, pool, exc: Exception) -> None:
        """The pool broke: run later jobs on the dispatcher threads."""
        with self._pool_lock:
            if self._pool is not pool:
                return  # another dispatcher (or close) got here first
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        _note_pool_broken(self.telemetry, exc)

    def _pop_next(self) -> JobHandle | None:
        """The oldest queued handle, or ``None`` (dispatch lock held)."""
        return self._queue.popleft() if self._queue else None

    def _worker_loop(self) -> None:
        while True:
            with self._dispatch:
                handle = self._pop_next()
                while handle is None:
                    if self._closed:
                        return
                    self._dispatch.wait()
                    handle = self._pop_next()
            self._process(handle)

    def _key_lock(self, key: str) -> threading.Lock:
        with self._key_guard:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    def _process(self, handle: JobHandle) -> None:
        if not handle._start():
            return  # cancelled while queued
        job = handle.job
        graph = handle._graph
        if obs_enabled():
            histogram("engine_queue_wait_seconds").observe(handle.queue_seconds)
        self.telemetry.emit("job_start", job.job_id)
        if handle.cache_key is not None:
            # Serialize identical jobs: whoever gets the lock first
            # computes and stores; everyone after re-checks and replays
            # the stored payload, so a result is executed exactly once.
            with self._key_lock(handle.cache_key):
                result = lookup_result(self.cache, handle.cache_key, job, self.telemetry)
                if result is None:
                    result = self._execute(job, graph)
                    store_result(self.cache, handle.cache_key, result, self.telemetry)
        else:
            result = self._execute(job, graph)
        counter("engine_jobs_total").inc()
        if not result.ok and not result.from_cache:
            counter("engine_jobs_failed_total").inc()
        handle._finish(result)
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
