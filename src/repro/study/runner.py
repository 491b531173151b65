"""Study execution: the local engine batch path and the remote service mode.

Both runners produce the same :class:`StudyOutcome` from the same
deterministic seed protocol, so a ``--remote`` study against a live
``repro-bisect serve`` must reproduce the local aggregates exactly:

* Graphs are built from generator specs through the service's own
  :func:`~repro.service.state.graph_from_generator_spec` (locally) or by
  the server from the identical spec (remotely) — same bits, same
  fingerprint, same engine cache identity.
* Heuristic seeds come from :func:`cell_seeds`, a pure function of
  ``(master_seed, cell_index, count)`` — independent of sweep size,
  submission order, and client count.
* Aggregation uses :class:`~repro.obs.accumulator.StreamingStats`, an
  exact count table whose summaries are permutation invariant, so
  out-of-order remote completion cannot change the result.

The remote runner doubles as the standing load/soak test: N worker
threads, one :class:`~repro.service.client.ServiceClient` each, draining
a shared work queue of (cell, seed) pairs against the service's job API.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..engine.executor import Engine
from ..engine.job import Job
from ..obs.accumulator import (
    StreamingStats,
    best_of_k_extrapolation,
    fit_lower_tail,
)
from ..rng import LaggedFibonacciRandom, derive_seed
from .grid import StudyGrid
from .phase import phase_report

__all__ = ["StudyOutcome", "cell_seeds", "run_study_local", "run_study_remote"]


def cell_seeds(master_seed: int, cell_index: int, count: int) -> list[int]:
    """The heuristic seeds for one cell — pure in all three arguments.

    Two-level derivation: the master stream yields a per-cell base seed
    (salted by the cell index, so cells are independent), and the cell
    stream yields one seed per run.  Growing ``count`` extends a cell's
    list without changing its prefix, and no cell's seeds depend on how
    many cells the grid has.
    """
    base = derive_seed(LaggedFibonacciRandom(master_seed), cell_index)
    child = LaggedFibonacciRandom(base)
    return [derive_seed(child, index) for index in range(count)]


@dataclass
class StudyOutcome:
    """A finished study: the grid, per-cell accumulators, and run counters."""

    grid: StudyGrid
    master_seed: int
    mode: str  # "local" | "remote"
    cell_stats: tuple[StreamingStats, ...]
    failed_requests: int = 0
    cache_hits: int = 0
    engine_seconds: float = 0.0  # sum of per-job engine timings, not wall clock

    def aggregates(self) -> dict[str, Any]:
        """The deterministic part of the payload: identical local vs remote."""
        cells = []
        for cell, stats in zip(self.grid.cells, self.cell_stats):
            fit = fit_lower_tail(stats)
            cells.append(
                {
                    **cell.to_dict(),
                    "stats": stats.summary(),
                    "tail_fit": fit.to_dict() if fit else None,
                    "best_of_k": best_of_k_extrapolation(fit) if fit else None,
                }
            )
        return {
            "preset": self.grid.name,
            "master_seed": self.master_seed,
            "seeds_per_cell": self.grid.seeds_per_cell,
            "cells": cells,
            "phase": phase_report(self.grid.cells, self.cell_stats),
        }

    def to_payload(self) -> dict[str, Any]:
        """The full ``study`` ledger section (aggregates + run counters)."""
        return {
            **self.aggregates(),
            "mode": self.mode,
            "failed_requests": self.failed_requests,
            "cache_hits": self.cache_hits,
            "engine_seconds": round(self.engine_seconds, 6),
        }


# -- local mode --------------------------------------------------------------------


def run_study_local(
    grid: StudyGrid, master_seed: int = 0, engine: Engine | None = None
) -> StudyOutcome:
    """Run every (cell, seed) job through the engine batch path.

    One :class:`~repro.engine.job.Job` per heuristic run, tagged with its
    cell index; graphs are built once per distinct generator spec and
    shared across cells.  A failed job raises — a study with silently
    missing runs would report a biased distribution.
    """
    engine = engine if engine is not None else Engine(jobs=1)
    graphs: dict[str, Any] = {}
    for cell in grid.cells:
        if cell.graph_key not in graphs:
            graphs[cell.graph_key] = cell.build_graph()
    jobs = [
        Job(
            graph_key=cell.graph_key,
            algorithm=cell.algorithm,
            seed=seed,
            tags=(("cell", index),),
        )
        for index, cell in enumerate(grid.cells)
        for seed in cell_seeds(master_seed, index, grid.seeds_per_cell)
    ]
    results = engine.run(jobs, graphs)
    stats = tuple(StreamingStats() for _ in grid.cells)
    cache_hits = 0
    seconds = 0.0
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"study job {result.job_id!r} failed: {result.error}"
            )
        stats[result.tag("cell")].add(result.cut)
        cache_hits += 1 if result.from_cache else 0
        seconds += result.seconds
    return StudyOutcome(
        grid=grid,
        master_seed=master_seed,
        mode="local",
        cell_stats=stats,
        cache_hits=cache_hits,
        engine_seconds=seconds,
    )


# -- remote mode -------------------------------------------------------------------


def _drain_remote(
    client,
    work: deque,
    graph_ids: dict[str, str],
    grid: StudyGrid,
    stats: list[StreamingStats],
    counters: dict[str, int | float],
    lock: threading.Lock,
    job_timeout: float,
) -> None:
    """One worker thread: pull (cell, seed) pairs, submit, wait, accumulate."""
    from ..service.client import ServiceClientError

    while True:
        try:
            cell_index, seed = work.popleft()  # thread-safe; raises when dry
        except IndexError:
            return
        cell = grid.cells[cell_index]
        # Any per-item failure — transport error, timeout, or a malformed
        # payload (missing keys, non-numeric cut) — must land in
        # counters["failed"]: a dead worker thread would silently drop
        # every item it had claimed and bias the distribution.
        try:
            spec = cell.algorithm
            records = client.submit(
                graph_ids[cell.graph_key],
                spec.name,
                params=spec.params_dict() or None,
                seeds=[seed],
            )
            status = client.wait(records[0]["id"], timeout=job_timeout)
            result = status.get("result") or {}
            ok = status["state"] == "done" and result.get("status") == "ok"
            cut = int(result["cut"]) if ok else 0
            cached = bool(result.get("from_cache"))
            seconds = float(result.get("seconds") or 0.0)
        except (ServiceClientError, TimeoutError, LookupError, TypeError, ValueError):
            ok = False
        with lock:
            if ok:
                stats[cell_index].add(cut)
                counters["cache_hits"] += 1 if cached else 0
                counters["engine_seconds"] += seconds
            else:
                counters["failed"] += 1


def run_study_remote(
    grid: StudyGrid,
    master_seed: int = 0,
    base_url: str = "http://127.0.0.1:8080",
    clients: int = 8,
    job_timeout: float = 120.0,
) -> StudyOutcome:
    """Run the study against a live service — the standing load test.

    ``clients`` worker threads each own a
    :class:`~repro.service.client.ServiceClient` and drain a shared queue
    of (cell, seed) pairs.  Failed or timed-out requests are counted (not
    raised): a soak test reports degradation, it does not abort on it.
    """
    from ..service.client import ServiceClient

    setup = ServiceClient(base_url)
    graph_ids: dict[str, str] = {}
    for cell in grid.cells:
        if cell.graph_key not in graph_ids:
            model, params = cell.generator_spec()
            graph_ids[cell.graph_key] = setup.generate_graph(model, **params)["id"]

    work: deque = deque(
        (index, seed)
        for index, _ in enumerate(grid.cells)
        for seed in cell_seeds(master_seed, index, grid.seeds_per_cell)
    )
    stats = [StreamingStats() for _ in grid.cells]
    counters: dict[str, int | float] = {
        "failed": 0, "cache_hits": 0, "engine_seconds": 0.0,
    }
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_drain_remote,
            args=(
                ServiceClient(base_url, timeout=job_timeout),
                work,
                graph_ids,
                grid,
                stats,
                counters,
                lock,
                job_timeout,
            ),
            name=f"study-client-{index}",
            daemon=True,
        )
        for index in range(max(1, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return StudyOutcome(
        grid=grid,
        master_seed=master_seed,
        mode="remote",
        cell_stats=tuple(stats),
        failed_requests=int(counters["failed"]),
        cache_hits=int(counters["cache_hits"]),
        engine_seconds=float(counters["engine_seconds"]),
    )
