"""Shared service state: graph store, job table and server-wide caps.

:class:`ServiceState` is everything behind the HTTP handlers — it owns a
:class:`~repro.engine.handles.JobRunner` (the worker pool and its FIFO
queue), an in-memory content-addressed graph store and the job table.
The HTTP layer (:mod:`repro.service.server`) is a thin JSON shim over
this class, which keeps the logic unit-testable without a socket.

**Caps.**  Every client shares one server, so two caps bound what an
outside client can make it hold: :data:`MAX_INFLIGHT_JOBS` unfinished
(queued + running) jobs and :data:`MAX_GRAPHS` stored graphs.  A request
beyond either is rejected with :class:`QuotaError` (HTTP 429).  A
submission of more than :data:`MAX_INFLIGHT_JOBS` jobs could never fit,
so it is a :class:`ValidationError` (HTTP 400) instead.

**Graphs.**  Uploaded or generated graphs are stored in memory keyed by
their canonical fingerprint (:func:`~repro.graphs.graph.graph_fingerprint`),
so re-uploading the same graph is idempotent and job submissions can
reference graphs by content address.
"""

from __future__ import annotations

import threading
from typing import Any

from ..engine.cache import ResultCache
from ..engine.handles import JobHandle, JobRunner
from ..engine.job import AlgorithmSpec, Job
from ..engine.registry import algorithm_info, algorithm_names, build_algorithm
from ..graphs.generators import generate_graph
from ..graphs.graph import Graph, graph_fingerprint
from ..graphs.io import graph_from_string
from ..obs import counter
from ..obs.clock import wall_time
from ..rng import LaggedFibonacciRandom, start_seeds

__all__ = [
    "NotFoundError",
    "QuotaError",
    "ServiceError",
    "ServiceState",
    "ValidationError",
    "graph_from_generator_spec",
]

#: Unfinished (queued + running) jobs the server holds at once.
MAX_INFLIGHT_JOBS = 64
#: Graphs the server stores; a stored graph is kept until the server stops.
MAX_GRAPHS = 32


class ServiceError(Exception):
    """Base class: carries the HTTP status the server should answer with."""

    http_status = 500


class ValidationError(ServiceError):
    """Malformed request payload (HTTP 400)."""

    http_status = 400


class NotFoundError(ServiceError):
    """Unknown graph / job / result address (HTTP 404)."""

    http_status = 404


class QuotaError(ServiceError):
    """A request would take the server past a cap (HTTP 429)."""

    http_status = 429


def graph_from_generator_spec(model: str, params: dict[str, Any]) -> Graph:
    """Build a graph from a generator spec (the ``POST /v1/graphs`` body).

    Same models and parameter names as ``repro-bisect generate``, through
    the same dispatcher (:func:`~repro.graphs.generators.generate_graph`),
    so a spec that names every parameter reproduces the CLI graph bit for
    bit.  The defaults differ: a parameter the spec leaves out takes the
    service default in :data:`~repro.graphs.generators.GENERATOR_DEFAULTS`
    (``width`` 4, ``p`` 0.03 or 0.05, ``vertices`` 100), where the CLI
    defaults to ``--width 8``, ``--p 0.002`` and requires ``--vertices``.
    """
    try:
        return generate_graph(model, params)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _graph_record(graph: Graph, graph_id: str, source: str) -> dict[str, Any]:
    return {
        "id": graph_id,
        "source": source,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "total_edge_weight": graph.total_edge_weight,
        "average_degree": round(graph.average_degree(), 3),
        "created_at": round(wall_time(), 6),
    }


class ServiceState:
    """The service's world: graphs, jobs, and the runner."""

    def __init__(self, runner: JobRunner) -> None:
        self.runner = runner
        self.started_at = wall_time()
        self._lock = threading.Lock()
        self._graphs: dict[str, Graph] = {}
        self._graph_meta: dict[str, dict[str, Any]] = {}
        self._jobs: dict[str, dict[str, Any]] = {}
        # Handles not yet seen finished: the in-flight check walks these,
        # not every job record the server has stored.
        self._unfinished: list[JobHandle] = []
        self._job_counter = 0

    # -- graphs -------------------------------------------------------------------

    def create_graph(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Store a graph from an upload or generator spec; returns its record.

        Content-addressed: re-adding an existing graph returns the
        existing record (and never counts against :data:`MAX_GRAPHS`).
        """
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        if "edges" in payload:
            if not isinstance(payload["edges"], str):
                raise ValidationError("'edges' must be edge-list text (a string)")
            try:
                graph = graph_from_string(payload["edges"], "edges")
            except (ValueError, KeyError) as exc:
                raise ValidationError(f"bad edge-list data: {exc}") from exc
            source = "upload"
        elif "generator" in payload:
            params = payload.get("params")
            if params is not None and not isinstance(params, dict):
                raise ValidationError("'params' must be an object")
            graph = graph_from_generator_spec(str(payload["generator"]), params or {})
            source = f"generator:{payload['generator']}"
        else:
            raise ValidationError(
                "graph payload needs 'edges' (edge-list text) or "
                "'generator' (+ 'params')"
            )
        if graph.num_vertices == 0:
            raise ValidationError("graph has no vertices")
        graph_id = graph_fingerprint(graph)
        with self._lock:
            if graph_id not in self._graphs:
                if len(self._graphs) >= MAX_GRAPHS:
                    raise QuotaError(f"the server stores its limit of {MAX_GRAPHS} graphs")
                self._graphs[graph_id] = graph
                self._graph_meta[graph_id] = _graph_record(graph, graph_id, source)
                counter("service_graphs_total").inc()
            record = dict(self._graph_meta[graph_id])
        self.runner.telemetry.emit(
            "graph_stored", graph_id=graph_id, source=source,
            vertices=record["vertices"], edges=record["edges"],
        )
        return record

    def get_graph(self, graph_id: str) -> Graph:
        with self._lock:
            graph = self._graphs.get(graph_id)
        if graph is None:
            raise NotFoundError(f"unknown graph {graph_id!r}")
        return graph

    def graph_record(self, graph_id: str) -> dict[str, Any]:
        with self._lock:
            record = self._graph_meta.get(graph_id)
        if record is None:
            raise NotFoundError(f"unknown graph {graph_id!r}")
        return dict(record)

    def list_graphs(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(self._graph_meta[g]) for g in sorted(self._graph_meta)]

    # -- jobs ---------------------------------------------------------------------

    def submit_jobs(self, payload: dict[str, Any]) -> list[dict[str, Any]]:
        """Expand one submission into engine jobs; returns their records.

        A submission names a stored graph, an algorithm, optional params,
        and either ``seed`` (+ optional ``starts``, seeds derived exactly
        like the bench best-of-R protocol) or an explicit ``seeds`` list.
        """
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        graph_id = payload.get("graph")
        if not graph_id:
            raise ValidationError("submission needs a 'graph' id")
        graph = self.get_graph(str(graph_id))
        algorithm = str(payload.get("algorithm", ""))
        if not algorithm:
            raise ValidationError("submission needs an 'algorithm' name")
        try:
            info = algorithm_info(algorithm)
        except KeyError:
            raise ValidationError(
                f"unknown algorithm {algorithm!r} "
                f"(registered: {', '.join(algorithm_names())})"
            ) from None
        if not info.supports(graph):
            raise ValidationError(
                f"algorithm {algorithm!r} requires max degree "
                f"{info.max_degree}; graph exceeds it"
            )
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ValidationError("'params' must be an object")
        try:
            spec = AlgorithmSpec.make(algorithm, **params)
            build_algorithm(spec)  # reject unknown params at submit, not in a worker
        except TypeError as exc:
            raise ValidationError(f"bad params for {algorithm!r}: {exc}") from exc
        if "timeout" in payload:
            # Without a pool, jobs run on dispatcher threads, where no
            # deadline can arm; a deadline honoured only sometimes is refused.
            raise ValidationError("per-job 'timeout' is not supported by the service")
        if "retries" in payload:
            # A job's result is a function of graph, spec and seed; a
            # retry on a derived seed would be stored under the original.
            raise ValidationError("per-job 'retries' is not supported by the service")
        seeds = self._expand_seeds(payload)
        with self._lock:
            self._unfinished = [handle for handle in self._unfinished if not handle.done]
            inflight = len(self._unfinished)
            if inflight + len(seeds) > MAX_INFLIGHT_JOBS:
                raise QuotaError(
                    f"the server would have {inflight + len(seeds)} jobs in flight "
                    f"(limit: {MAX_INFLIGHT_JOBS})"
                )
            job_ids = []
            for _ in seeds:
                self._job_counter += 1
                job_ids.append(f"j{self._job_counter:06d}")
        records = []
        for job_id, seed in zip(job_ids, seeds):
            job = Job(
                graph_key=str(graph_id),
                algorithm=spec,
                seed=int(seed),
                job_id=job_id,
            )
            handle = self.runner.submit(job, graph)
            record = {
                "id": job_id,
                "graph": str(graph_id),
                "algorithm": spec.describe(),
                "seed": int(seed),
                "handle": handle,
            }
            self._register(record)
            counter("service_jobs_submitted_total").inc()
            records.append(self.job_status(job_id))
        return records

    def _register(self, record: dict[str, Any]) -> None:
        with self._lock:
            self._jobs[record["id"]] = record
            self._unfinished.append(record["handle"])  # dropped once seen finished

    @staticmethod
    def _expand_seeds(payload: dict[str, Any]) -> list[int]:
        if "seeds" in payload:
            seeds = payload["seeds"]
            if not isinstance(seeds, list) or not seeds:
                raise ValidationError("'seeds' must be a non-empty list of integers")
            count = len(seeds)
        else:
            try:
                seed = int(payload.get("seed", 0))
                starts = int(payload.get("starts", 1))
            except (TypeError, ValueError):
                raise ValidationError("'seed' and 'starts' must be integers") from None
            if starts < 1:
                raise ValidationError("'starts' must be at least 1")
            count = starts
        # Checked before any seed is derived (derivation is linear in
        # starts): a submission past the in-flight cap can never fit.
        if count > MAX_INFLIGHT_JOBS:
            raise ValidationError(
                f"submission expands to {count} jobs (limit: {MAX_INFLIGHT_JOBS})"
            )
        if "seeds" in payload:
            try:
                return [int(s) for s in seeds]
            except (TypeError, ValueError):
                raise ValidationError("'seeds' must be a non-empty list of integers") from None
        if starts == 1:
            return [seed]
        return start_seeds(LaggedFibonacciRandom(seed), starts)

    def _record_for(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise NotFoundError(f"unknown job {job_id!r}")
        return record

    def job_status(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """The poll view of one job: state, timings, result when done.

        ``wait`` seconds, when positive, hold the answer until the job is
        done or cancelled; the hold takes no lock of this state.
        """
        record = self._record_for(job_id)
        handle: JobHandle = record["handle"]
        if wait > 0:
            handle.wait(wait)
        status: dict[str, Any] = {
            "id": record["id"],
            "graph": record["graph"],
            "algorithm": record["algorithm"],
            "seed": record["seed"],
            "state": handle.state,
            "cache_key": handle.cache_key,
            "submitted_at": round(handle.submitted_at, 6),
        }
        if handle.started_at is not None:
            status["queue_seconds"] = round(handle.queue_seconds, 6)
        if handle.finished_at is not None:
            status["finished_at"] = round(handle.finished_at, 6)
        result = handle.result
        if result is not None:
            status["result"] = {
                "status": result.status,
                "cut": result.cut,
                "seconds": round(result.seconds, 6),
                "attempts": result.attempts,
                "from_cache": result.from_cache,
                "error": result.error,
                "counters": dict(result.counters),
            }
        return status

    def list_jobs(self, state: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            ids = sorted(self._jobs)
        statuses = [self.job_status(job_id) for job_id in ids]
        if state is not None:
            statuses = [s for s in statuses if s["state"] == state]
        return statuses

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        handle: JobHandle = self._record_for(job_id)["handle"]
        cancelled = handle.cancel()
        if cancelled:
            counter("service_jobs_cancelled_total").inc()
            self.runner.telemetry.emit("job_cancelled", job_id)
        return {"id": job_id, "cancelled": cancelled, "state": handle.state}

    # -- results ------------------------------------------------------------------

    def result_by_key(self, key: str) -> dict[str, Any]:
        """Fetch a stored result payload by content address (cache key)."""
        cache: ResultCache | None = self.runner.cache
        if cache is None:
            raise NotFoundError("this server runs without a result cache")
        payload = cache.get(key)
        if payload is None:
            raise NotFoundError(f"no result stored under {key!r}")
        return payload

    # -- misc ---------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": round(wall_time() - self.started_at, 3),
            "graphs": len(self._graphs),
            "jobs": len(self._jobs),
            "pending": self.runner.pending(),
            "workers": self.runner.workers,
            "algorithms": algorithm_names(),
        }
