"""Experiment runner implementing the paper's measurement protocol.

Section VI: "For each graph we ran each procedure from two different
randomly generated initial bisections.  All bisection results reported
here will be based on the best solution of the two trials for that graph.
All timing results will be the total time it took the procedure to
complete both starting configurations (including the time to generate the
initial bisections)."

:func:`best_of_starts` is that protocol on one graph; :func:`run_workload`
sweeps a list of workload cases into table rows.

Both run through the :mod:`repro.engine` job engine: each start becomes a
:class:`~repro.engine.job.Job` carrying the algorithm's registry
:class:`~repro.engine.job.AlgorithmSpec` and a seed from
:func:`repro.rng.start_seeds`.  Passing an ``engine`` configured with
``jobs=N`` fans the starts out across worker processes with identical
results, and an engine with a cache makes repeated sweeps near-free.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..engine.executor import Engine
from ..engine.job import AlgorithmSpec, Job, JobResult
from ..graphs.graph import Graph
from ..rng import resolve_rng, spawn, start_seeds

__all__ = [
    "BestOfStarts",
    "RowResult",
    "best_of_starts",
    "run_workload",
]


@dataclass(frozen=True)
class BestOfStarts:
    """Best-of-N protocol outcome for one (graph, algorithm) cell.

    ``cut`` is the best of the per-start cuts; ``seconds`` is the *total*
    wall time over all starts, per the paper's timing convention.
    """

    cut: int
    seconds: float
    start_cuts: tuple[int, ...]
    start_seconds: tuple[float, ...]

    @property
    def starts(self) -> int:
        return len(self.start_cuts)


@dataclass(frozen=True)
class RowResult:
    """One table row: a graph (label + expected width) and all cell outcomes."""

    label: str
    expected_b: int | None
    cells: dict[str, BestOfStarts] = field(default_factory=dict)

    def cut(self, algorithm: str) -> int:
        return self.cells[algorithm].cut

    def seconds(self, algorithm: str) -> float:
        return self.cells[algorithm].seconds


def _start_jobs(
    graph_key: str,
    algorithm: AlgorithmSpec,
    rng: random.Random,
    starts: int,
    prefix: str = "",
) -> list[Job]:
    """One job per start, seeded exactly as the serial spawn chain would."""
    return [
        Job(
            graph_key=graph_key,
            algorithm=algorithm,
            seed=seed,
            job_id=f"{prefix}start{index}",
            tags=(("start", index),),
        )
        for index, seed in enumerate(start_seeds(rng, starts))
    ]


def _assemble(results: Sequence[JobResult]) -> BestOfStarts:
    failed = [r for r in results if not r.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} of {len(results)} starts failed "
            f"(first: {failed[0].job_id}: {failed[0].error})"
        )
    return BestOfStarts(
        cut=min(r.cut for r in results),
        seconds=sum(r.seconds for r in results),
        start_cuts=tuple(r.cut for r in results),
        start_seconds=tuple(r.seconds for r in results),
    )


def best_of_starts(
    graph: Graph,
    algorithm: AlgorithmSpec,
    rng: random.Random | int | None = None,
    starts: int = 2,
    engine: Engine | None = None,
) -> BestOfStarts:
    """Run ``algorithm`` from ``starts`` independent random starts.

    Each start gets its own deterministic derived seed (so adding or
    reordering starts does not perturb the others), mirroring the paper's
    two-random-initial-bisections protocol.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    rng = resolve_rng(rng)
    engine = engine if engine is not None else Engine()
    jobs = _start_jobs("graph", algorithm, rng, starts)
    return _assemble(engine.run(jobs, {"graph": graph}))


def run_workload(
    cases: Sequence,
    algorithms: Mapping[str, AlgorithmSpec],
    rng: random.Random | int | None = None,
    starts: int = 2,
    engine: Engine | None = None,
) -> list[RowResult]:
    """Sweep workload ``cases`` (see :mod:`repro.bench.workloads`) into rows.

    Each case builds its graph(s) from its own child generator; cases with
    multiple seeds (the paper averages 3 random graphs per ``Gbreg``
    parameter point) contribute one row per seed — aggregation to
    per-parameter averages happens in the table renderer.

    The whole sweep is submitted as one engine batch, so with a parallel
    engine every (case, algorithm, start) cell runs concurrently.
    """
    rng = resolve_rng(rng)
    engine = engine if engine is not None else Engine()
    names = sorted(algorithms)
    graphs: dict[str, object] = {}
    jobs: list[Job] = []
    meta: list[tuple[str, int | None]] = []
    for salt, case in enumerate(cases):
        case_rng = spawn(rng, salt)
        key = f"case{salt}"
        graphs[key] = case.build(case_rng)
        meta.append((case.label, case.expected_b))
        for cell_salt, name in enumerate(names):
            cell_rng = spawn(case_rng, cell_salt)
            jobs.extend(
                _start_jobs(
                    key, algorithms[name], cell_rng, starts,
                    prefix=f"{key}:{name}:",
                )
            )
    results = engine.run(jobs, graphs)

    rows: list[RowResult] = []
    cursor = 0
    for label, expected_b in meta:
        cells = {}
        for name in names:
            cells[name] = _assemble(results[cursor : cursor + starts])
            cursor += starts
        rows.append(RowResult(label=label, expected_b=expected_b, cells=cells))
    return rows
