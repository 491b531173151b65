"""Declarative job specs for the partitioning execution engine.

A :class:`Job` is everything needed to run one partitioning attempt — a
graph reference (key into the batch's graph table), a registry
:class:`AlgorithmSpec` (name plus scalar params, resolved to a callable
by :mod:`repro.engine.registry` where the job runs), and an integer seed
— plus robustness knobs (timeout, retries).  Jobs are frozen, hashable
and picklable, so they can cross process boundaries and serve as cache
identities.

A :class:`JobResult` carries only primitives (cut, side-0 vertex tokens,
timings, counters), never live ``Graph``/``Bisection`` objects, which
keeps inter-process transfer cheap and makes results JSON-serializable
for the on-disk cache and telemetry.  :meth:`JobResult.bisection`
rebuilds a full :class:`~repro.partition.bisection.Bisection` against the
original graph when callers need one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from ..graphs.graph import vertex_token

__all__ = ["AlgorithmSpec", "Job", "JobResult"]


def _freeze_params(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named, parameterized algorithm from the engine registry.

    ``params`` is a canonical (sorted) tuple of key/value pairs so that
    specs are hashable and two specs with the same parameters compare
    equal regardless of keyword order.  Values must be JSON-serializable
    scalars — they become part of the result-cache key.

    >>> AlgorithmSpec.make("sa", size_factor=4).describe()
    'sa(size_factor=4)'
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **params: Any) -> "AlgorithmSpec":
        return cls(name=name, params=_freeze_params(params))

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                          for k, v in self.params)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Job:
    """One unit of partitioning work.

    ``graph_key`` names the graph in the table passed to
    :meth:`repro.engine.executor.Engine.run` (graphs are shipped to
    workers once per pool, not once per job).  ``timeout`` (seconds) and
    ``retries`` default to ``None`` meaning "inherit the engine's
    defaults"; a retried attempt gets a fresh seed derived from
    ``seed`` and the attempt number, so retries are deterministic
    functions of the job spec.  ``tags`` are opaque key/value pairs the
    submitter can use to route results (the bench tags jobs with their
    table cell and start index).
    """

    graph_key: str
    algorithm: AlgorithmSpec
    seed: int
    job_id: str = ""
    timeout: float | None = None
    retries: int | None = None
    tags: tuple[tuple[str, Any], ...] = ()

    def tag(self, key: str, default: Any = None) -> Any:
        for k, v in self.tags:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: status, cut, partition tokens, timings, counters.

    ``side0`` holds the sorted :func:`~repro.graphs.graph.vertex_token`
    strings of the vertices on side 0 (empty when the algorithm's result
    exposes no bisection, or on failure).  ``seconds`` is the wall time
    of the successful attempt plus any failed attempts before it — the
    paper's "total time" convention.  ``seeds_tried`` records the seed of
    every attempt, so tests can verify the retry derivation.

    ``obs`` is the in-flight observability shipment (worker-side metric
    deltas and span records — see :mod:`repro.obs.shipper`) attached by
    pool workers and consumed (merged into the parent registry, then
    stripped back to ``None``) by the engine before results reach
    callers.  It never enters the result cache: :meth:`to_payload`
    whitelists the keys a cached result keeps, and :meth:`from_payload`
    replays them for either job door.
    """

    job_id: str
    graph_key: str
    algorithm: str
    seed: int
    status: str  # "ok" | "failed"
    cut: int | None
    side0: tuple[str, ...]
    seconds: float
    attempts: int = 1
    seeds_tried: tuple[int, ...] = ()
    from_cache: bool = False
    error: str | None = None
    counters: dict[str, Any] = field(default_factory=dict)
    tags: tuple[tuple[str, Any], ...] = ()
    obs: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def tag(self, key: str, default: Any = None) -> Any:
        for k, v in self.tags:
            if k == key:
                return v
        return default

    def to_payload(self) -> dict[str, Any]:
        """The result-cache payload: the outcome, without the job's identity."""
        return {
            "status": self.status,
            "cut": self.cut,
            "side0": list(self.side0),
            "seconds": self.seconds,
            "attempts": self.attempts,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_payload(cls, job: Job, payload: Mapping[str, Any]) -> "JobResult":
        """Replay a cached payload as ``job``'s result (``from_cache=True``)."""
        return cls(
            job_id=job.job_id,
            graph_key=job.graph_key,
            algorithm=job.algorithm.name,
            seed=job.seed,
            status=payload.get("status", "ok"),
            cut=payload.get("cut"),
            side0=tuple(payload.get("side0", ())),
            seconds=payload.get("seconds", 0.0),
            attempts=payload.get("attempts", 1),
            from_cache=True,
            counters=dict(payload.get("counters", {})),
            tags=job.tags,
        )

    def bisection(self, graph):
        """Rebuild the :class:`Bisection` of ``graph`` this result encodes."""
        from ..partition.bisection import Bisection

        if not self.ok:
            raise ValueError(f"job {self.job_id!r} failed: {self.error}")
        if not self.side0:
            raise ValueError(f"job {self.job_id!r} recorded no partition")
        by_token = {vertex_token(v): v for v in graph.vertices()}
        try:
            side0 = [by_token[token] for token in self.side0]
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]!r} not in graph") from exc
        return Bisection.from_sides(graph, side0)
