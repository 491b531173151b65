"""The ``repro-bisect check`` runner: every algorithm vs. every oracle.

Enumerates the engine registry, runs each algorithm over the seeded
instance corpus, and applies the three verification layers — invariant
oracles on every result, the exact oracle on instances small enough to
brute-force, and the metamorphic relations.  Produces a
:class:`CheckReport` that renders as a pass/fail table and serializes to
JSON for the CI artifact.

The runner is deliberately deterministic: the corpus is seeded, run
seeds equal instance seeds, and the SA-family algorithms get a short
explicit schedule (``size_factor=1``) so a full check stays interactive.
"""

from __future__ import annotations

import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from ..obs.ascii import render_generic_table
from ..engine import AlgorithmSpec, algorithm_info, algorithm_names, build_algorithm
from ..obs.clock import monotonic_time
from ..rng import LaggedFibonacciRandom
from .invariants import check_result
from .oracles import EXACT_MAX_VERTICES, check_against_optimum, exact_optimum
from .properties import (
    DEFAULT_FAMILIES,
    check_cache_equivalence,
    check_determinism,
    check_edge_permutation_invariance,
    check_jobs_equivalence,
    check_relabeling_invariance,
    corpus,
)

__all__ = ["CheckRecord", "CheckReport", "run_check"]

# Short explicit schedules for the annealing family keep the full check
# interactive; every other algorithm runs with its defaults.
_FAST_PARAMS: dict[str, dict[str, Any]] = {
    "sa": {"size_factor": 1},
    "csa": {"size_factor": 1},
}


@dataclass(frozen=True)
class CheckRecord:
    """One checked combination and its verdict."""

    section: str  # "invariants" | "exact" | "metamorphic"
    algorithm: str
    instance: str
    seed: int
    status: str  # "ok" | "fail" | "skip"
    seconds: float = 0.0
    cut: int | None = None
    violations: tuple[str, ...] = ()
    note: str = ""


@dataclass
class CheckReport:
    """All records of one check run, with rendering and JSON export."""

    records: list[CheckRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(record.status != "fail" for record in self.records)

    def counts(self) -> dict[str, int]:
        tally = {"ok": 0, "fail": 0, "skip": 0}
        for record in self.records:
            tally[record.status] += 1
        return tally

    def failures(self) -> list[CheckRecord]:
        return [record for record in self.records if record.status == "fail"]

    def to_json(self) -> dict[str, Any]:
        counts = self.counts()
        sections: dict[str, dict[str, int]] = {}
        for record in self.records:
            bucket = sections.setdefault(
                record.section, {"ok": 0, "fail": 0, "skip": 0}
            )
            bucket[record.status] += 1
        return {
            "version": 1,
            "ok": self.ok,
            "summary": {**counts, "sections": sections},
            "records": [
                {
                    "section": r.section,
                    "algorithm": r.algorithm,
                    "instance": r.instance,
                    "seed": r.seed,
                    "status": r.status,
                    "seconds": round(r.seconds, 6),
                    "cut": r.cut,
                    "violations": list(r.violations),
                    "note": r.note,
                }
                for r in self.records
            ],
        }

    def render(self, verbose: bool = False) -> str:
        """The pass/fail summary table plus one line per failure."""
        per_algorithm: dict[tuple[str, str], dict[str, int]] = {}
        for record in self.records:
            key = (record.section, record.algorithm)
            bucket = per_algorithm.setdefault(key, {"ok": 0, "fail": 0, "skip": 0})
            bucket[record.status] += 1
        rows = [
            [
                section,
                algorithm,
                tally["ok"],
                tally["fail"],
                tally["skip"],
                "FAIL" if tally["fail"] else "pass",
            ]
            for (section, algorithm), tally in sorted(per_algorithm.items())
        ]
        lines = [
            render_generic_table(
                ["section", "algorithm", "ok", "fail", "skip", "verdict"],
                rows,
                title="repro-bisect check",
            )
        ]
        shown = self.records if verbose else self.failures()
        for record in shown:
            for violation in record.violations:
                lines.append(
                    f"FAIL {record.section}/{record.algorithm} on "
                    f"{record.instance} seed={record.seed}: {violation}"
                )
        counts = self.counts()
        lines.append(
            f"{counts['ok']} ok, {counts['fail']} fail, {counts['skip']} skipped "
            f"-> {'OK' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def _spec_for(name: str) -> AlgorithmSpec:
    return AlgorithmSpec.make(name, **_FAST_PARAMS.get(name, {}))


def _run_one(algorithm, graph, seed: int):
    began = monotonic_time()
    result = algorithm(graph, LaggedFibonacciRandom(seed))
    return result, monotonic_time() - began


def run_check(
    algorithms: Sequence[str] | None = None,
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = (10, 16),
    seeds: Sequence[int] = (0, 1, 2),
    include_exact: bool = True,
    include_metamorphic: bool = True,
    jobs: int = 2,
    cache_dir: str | None = None,
) -> CheckReport:
    """Run the full verification matrix and return the report.

    ``algorithms`` defaults to every registered name.  Instances an
    algorithm cannot structurally handle (e.g. the exact cycle solver on
    degree-3 graphs) are recorded as ``skip`` with the reason, so the
    matrix stays total: every (algorithm, instance) pair is accounted for.
    """
    names = list(algorithms) if algorithms is not None else algorithm_names()
    instances = corpus(families=families, sizes=sizes, seeds=seeds)
    report = CheckReport()
    optima: dict[str, int] = {}

    for name in names:
        info = algorithm_info(name)
        algorithm = build_algorithm(_spec_for(name))
        for instance in instances:
            if not info.supports(instance.graph):
                report.records.append(CheckRecord(
                    section="invariants",
                    algorithm=name,
                    instance=instance.name,
                    seed=instance.seed,
                    status="skip",
                    note=f"requires max degree <= {info.max_degree}, "
                    f"instance has {instance.max_degree}",
                ))
                continue
            try:
                result, seconds = _run_one(algorithm, instance.graph, instance.seed)
            except Exception as exc:  # noqa: BLE001 - a crash IS the finding
                report.records.append(CheckRecord(
                    section="invariants",
                    algorithm=name,
                    instance=instance.name,
                    seed=instance.seed,
                    status="fail",
                    violations=(f"crash: {type(exc).__name__}: {exc}",),
                ))
                continue
            violations = check_result(instance.graph, result)
            report.records.append(CheckRecord(
                section="invariants",
                algorithm=name,
                instance=instance.name,
                seed=instance.seed,
                status="fail" if violations else "ok",
                seconds=seconds,
                cut=result.cut,
                violations=tuple(str(v) for v in violations),
            ))
            if (
                include_exact
                and not violations
                and instance.graph.num_vertices <= EXACT_MAX_VERTICES
                and instance.graph.num_vertices >= 2
            ):
                if instance.name not in optima:
                    optima[instance.name] = exact_optimum(instance.graph)
                oracle_violations = check_against_optimum(
                    name,
                    result.cut,
                    optima[instance.name],
                    context=f"{instance.name} seed={instance.seed}",
                )
                report.records.append(CheckRecord(
                    section="exact",
                    algorithm=name,
                    instance=instance.name,
                    seed=instance.seed,
                    status="fail" if oracle_violations else "ok",
                    cut=result.cut,
                    violations=tuple(str(v) for v in oracle_violations),
                    note=f"optimum={optima[instance.name]}",
                ))

    if include_metamorphic:
        _run_metamorphic(report, names, families, sizes, seeds, jobs, cache_dir)
    return report


def _metamorphic_record(report, name, instance, violations, label=""):
    report.records.append(CheckRecord(
        section="metamorphic",
        algorithm=name,
        instance=instance.name,
        seed=instance.seed,
        status="fail" if violations else "ok",
        violations=tuple(str(v) for v in violations),
        note=label,
    ))


def _run_metamorphic(
    report: CheckReport,
    names: Sequence[str],
    families: Sequence[str],
    sizes: Sequence[int],
    seeds: Sequence[int],
    jobs: int,
    cache_dir: str | None,
) -> None:
    """One representative instance per family, relations over all algorithms.

    Determinism and relabeling invariance run per algorithm; the engine
    relations (jobs equivalence, cache equivalence) run on the registry
    specs of two representative algorithms, which exercises the whole
    engine path without multiplying process-pool spawns.
    """
    probes = corpus(families=families, sizes=sizes[:1], seeds=seeds[:1])
    for instance in probes:
        _metamorphic_record(
            report, "-", instance,
            check_edge_permutation_invariance(instance.graph, seed=instance.seed),
            label="edge-permutation",
        )
    for name in names:
        info = algorithm_info(name)
        algorithm = build_algorithm(_spec_for(name))
        for instance in probes:
            if not info.supports(instance.graph):
                continue
            _metamorphic_record(
                report, name, instance,
                check_determinism(algorithm, instance.graph, instance.seed),
                label="determinism",
            )
            _metamorphic_record(
                report, name, instance,
                check_relabeling_invariance(algorithm, instance.graph, instance.seed),
                label="relabeling",
            )
    engine_names = [n for n in ("kl", "ckl") if n in names] or list(names[:1])
    graph_probes = [p for p in probes if p.family in ("gnp", "gbreg3")] or probes[:1]
    for name in engine_names:
        spec = _spec_for(name)
        for instance in graph_probes[:1]:
            _metamorphic_record(
                report, name, instance,
                check_jobs_equivalence(
                    spec, instance.graph, seeds=list(seeds)[:3] or [0], jobs=jobs
                ),
                label="jobs-equivalence",
            )
            with tempfile.TemporaryDirectory() as tmp:
                _metamorphic_record(
                    report, name, instance,
                    check_cache_equivalence(
                        spec, instance.graph, instance.seed, cache_dir or tmp
                    ),
                    label="cache-equivalence",
                )
