"""Incremental job execution: handles, cancellation, and a FIFO queue.

:class:`~repro.engine.executor.Engine` runs a *batch* to completion and
returns; a long-running front door (the HTTP service, an interactive
session) instead needs to **submit jobs one at a time, poll them, and
cancel the ones nobody is waiting for any more**.  :class:`JobRunner`
provides that shape on the batch engine's own
:class:`~repro.engine.executor.WorkerPool`, content-addressed
:class:`~repro.engine.cache.ResultCache` and
:class:`~repro.engine.telemetry.Telemetry`, so a job produces the same
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
  threads own the queue, the per-key lock and cancellation; each hands
  its job to the pool (built in ``__init__``, before any thread starts)
  and waits for it, so compute never holds the server process's GIL and
  HTTP handler threads answer polls while jobs run.  The pool owns
  everything else — shared-memory export, worker metrics and spans, and
  the rule that runs a job on its dispatcher thread when the pool cannot
  — so every handle resolves.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from ..obs import counter
from ..obs.clock import monotonic_time, wall_time
from .cache import ResultCache, job_cache_key, lookup_result, store_result
from .executor import WorkerPool, require_spec
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
        # Fork before the dispatcher threads exist (and, in the service,
        # before the HTTP threads): a child forked from a multi-threaded
        # parent can inherit a lock some other thread held.
        self.pool = WorkerPool(workers, self.telemetry)
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
        self.pool.close(wait)

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # -- internals ----------------------------------------------------------------

    def _execute(self, handle: JobHandle) -> JobResult:
        return self.pool.submit(handle.job, handle._graph, handle._submitted_mono).result()

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
        self.telemetry.emit("job_start", job.job_id)
        if handle.cache_key is not None:
            # Serialize identical jobs: whoever gets the lock first
            # computes and stores; everyone after re-checks and replays
            # the stored payload, so a result is executed exactly once.
            with self._key_lock(handle.cache_key):
                result = lookup_result(self.cache, handle.cache_key, job, self.telemetry)
                if result is None:
                    result = self._execute(handle)
                    store_result(self.cache, handle.cache_key, result, self.telemetry)
        else:
            result = self._execute(handle)
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
