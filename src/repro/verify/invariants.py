"""Invariant oracles: pure checkers for ``(instance, partition)`` pairs.

Every checker takes already-computed objects, recomputes the claimed
quantity from scratch, and returns a list of :class:`Violation` values
(empty = the invariant holds).  Nothing here mutates its inputs or draws
randomness, so the same oracle serves the unit tests, the property
harness, and the ``repro-bisect check`` command.

The invariants (see ``docs/verification.md``):

* **balance** — side vertex counts differ by at most 1 (exactly equal for
  even ``n`` on unit-weight graphs); weighted imbalance within the
  graph's minimum achievable tolerance;
* **cut exactness** — the reported cut equals a from-scratch recount over
  the edge list;
* **vertex conservation** — the two sides partition the vertex set: no
  vertex lost, none duplicated, none invented;
* **compaction round-trip** — supervertex membership partitions the
  original vertex set, weights are conserved, and projection is
  cut-exact (:func:`check_compaction_provenance`);
* **monotone refinement** — the KL/FM cut trace never increases
  (pass gains are non-negative) when the run started balanced;
* **SA bookkeeping** — Metropolis acceptance counters are consistent and
  the cooling trace is sane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..graphs.graph import Graph
from ..partition.bisection import (
    Bisection,
    cut_weight,
    minimum_achievable_imbalance,
)

if TYPE_CHECKING:
    from ..core.compaction import Compaction

__all__ = [
    "Violation",
    "balance_tolerance_for",
    "check_balance",
    "check_compaction_provenance",
    "check_cut_exact",
    "check_monotone_refinement",
    "check_result",
    "check_sa_bookkeeping",
    "check_vertex_conservation",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which oracle failed and a human-readable why."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message}"


def balance_tolerance_for(instance: Graph) -> int:
    """Minimum achievable weighted imbalance of ``instance``.

    For unit vertex weights this is ``n % 2``; for contracted/weighted
    instances it is the exact subset-sum optimum.
    """
    if instance.is_uniform_vertex_weight():
        return instance.num_vertices % 2
    return minimum_achievable_imbalance(
        instance.vertex_weight(v) for v in instance.vertices()
    )


def check_balance(instance: Graph, partition: Any, tolerance: int | None = None) -> list[Violation]:
    """Exact balance: side sizes within 1 (unit weights) / weights within tolerance."""
    violations: list[Violation] = []
    if tolerance is None:
        tolerance = balance_tolerance_for(instance)
    side0 = partition.side(0)
    side1 = partition.side(1)
    if instance.is_uniform_vertex_weight():
        if abs(len(side0) - len(side1)) > max(tolerance, instance.num_vertices % 2):
            violations.append(Violation(
                "balance",
                f"side sizes ({len(side0)}, {len(side1)}) differ by more than "
                f"{max(tolerance, instance.num_vertices % 2)}",
            ))
    w0 = sum(instance.vertex_weight(v) for v in side0)
    w1 = sum(instance.vertex_weight(v) for v in side1)
    if abs(w0 - w1) > tolerance:
        violations.append(Violation(
            "balance",
            f"weighted imbalance |{w0} - {w1}| = {abs(w0 - w1)} exceeds "
            f"tolerance {tolerance}",
        ))
    return violations


def check_cut_exact(instance: Graph, partition: Any, reported_cut: int | None = None) -> list[Violation]:
    """The reported cut equals a from-scratch recount over all edges/nets."""
    violations: list[Violation] = []
    actual = cut_weight(instance, partition.assignment())
    if partition.cut != actual:
        violations.append(Violation(
            "cut-exact",
            f"partition reports cut {partition.cut}, recount gives {actual}",
        ))
    if reported_cut is not None and reported_cut != actual:
        violations.append(Violation(
            "cut-exact",
            f"algorithm reported cut {reported_cut}, recount gives {actual}",
        ))
    return violations


def check_vertex_conservation(instance: Graph, partition: Any) -> list[Violation]:
    """Sides partition the vertex set: nothing lost, duplicated, or invented."""
    violations: list[Violation] = []
    side0 = partition.side(0)
    side1 = partition.side(1)
    vertices = set(instance.vertices())
    overlap = side0 & side1
    if overlap:
        violations.append(Violation(
            "conservation", f"{len(overlap)} vertices on both sides, e.g. "
            f"{next(iter(overlap))!r}",
        ))
    union = side0 | side1
    lost = vertices - union
    if lost:
        violations.append(Violation(
            "conservation", f"{len(lost)} vertices lost, e.g. {next(iter(lost))!r}",
        ))
    invented = union - vertices
    if invented:
        violations.append(Violation(
            "conservation",
            f"{len(invented)} vertices not in the instance, e.g. "
            f"{next(iter(invented))!r}",
        ))
    return violations


def check_compaction_provenance(compaction: Compaction) -> list[Violation]:
    """Compaction round-trip: membership partitions V, weights conserved.

    Wraps :meth:`repro.core.compaction.Compaction.validate` into the
    violation protocol.
    """
    try:
        compaction.validate()
    except AssertionError as exc:
        return [Violation("compaction", str(exc))]
    return []


def check_monotone_refinement(result: Any) -> list[Violation]:
    """KL/FM cut trace is monotone non-increasing and lands on the final cut.

    Applies to any result exposing ``initial_cut`` + ``pass_gains`` (the
    KL/FM pass protocol).  Valid only for runs that started balanced —
    which covers every run the harness drives (random starts are balanced;
    the compaction pipeline rebalances before refining).
    """
    gains = getattr(result, "pass_gains", None)
    initial = getattr(result, "initial_cut", None)
    if gains is None or initial is None:
        return []
    violations: list[Violation] = []
    negative = [g for g in gains if g < 0]
    if negative:
        violations.append(Violation(
            "monotone-cut",
            f"pass gains contain negative entries {negative} (cut increased)",
        ))
    final = initial - sum(gains)
    if final != result.cut:
        violations.append(Violation(
            "monotone-cut",
            f"initial cut {initial} minus pass gains {gains} gives {final}, "
            f"but the result's cut is {result.cut}",
        ))
    if result.cut > initial:
        violations.append(Violation(
            "monotone-cut",
            f"final cut {result.cut} exceeds initial cut {initial}",
        ))
    return violations


def check_sa_bookkeeping(result: Any) -> list[Violation]:
    """Metropolis acceptance accounting and cooling-trace sanity for SA runs."""
    attempted = getattr(result, "moves_attempted", None)
    accepted = getattr(result, "moves_accepted", None)
    if attempted is None or accepted is None:
        return []
    violations: list[Violation] = []
    if not 0 <= accepted <= attempted:
        violations.append(Violation(
            "sa-bookkeeping",
            f"accepted moves {accepted} outside [0, attempted={attempted}]",
        ))
    trace = getattr(result, "temperature_trace", None)
    temperatures = getattr(result, "temperatures", None)
    # An empty trace means the run opted out of recording (record_trace=False),
    # not that bookkeeping drifted — only check a trace that was kept.
    if trace and temperatures is not None and len(trace) != temperatures:
        violations.append(Violation(
            "sa-bookkeeping",
            f"trace has {len(trace)} entries but {temperatures} temperatures "
            "were counted",
        ))
    if trace:
        previous = None
        for step, (temp, ratio, _cut) in enumerate(trace):
            if temp <= 0:
                violations.append(Violation(
                    "sa-bookkeeping", f"non-positive temperature {temp} at step {step}",
                ))
                break
            if previous is not None and temp > previous:
                violations.append(Violation(
                    "sa-bookkeeping",
                    f"temperature rose from {previous} to {temp} at step {step}",
                ))
                break
            if not 0.0 <= ratio <= 1.0:
                violations.append(Violation(
                    "sa-bookkeeping",
                    f"acceptance ratio {ratio} outside [0, 1] at step {step}",
                ))
                break
            previous = temp
    initial_temp = getattr(result, "initial_temperature", None)
    final_temp = getattr(result, "final_temperature", None)
    if (
        initial_temp is not None
        and final_temp is not None
        and final_temp > initial_temp
    ):
        violations.append(Violation(
            "sa-bookkeeping",
            f"final temperature {final_temp} exceeds initial {initial_temp}",
        ))
    tolerance = getattr(result, "balance_tolerance", None)
    if tolerance is not None:
        bisection = getattr(result, "bisection", None)
        if bisection is not None and bisection.imbalance > tolerance:
            violations.append(Violation(
                "sa-bookkeeping",
                f"returned imbalance {bisection.imbalance} exceeds the "
                f"tolerance {tolerance} the run was asked to honor",
            ))
    initial_cut = getattr(result, "initial_cut", None)
    initial_imbalance = getattr(result, "initial_imbalance", None)
    started_balanced = (
        tolerance is not None
        and initial_imbalance is not None
        and initial_imbalance <= tolerance
    )
    if initial_cut is not None and started_balanced and result.cut > initial_cut:
        # Best-seen tracking: from a *balanced* start the best balanced
        # configuration can never be worse than the start itself.  An
        # unbalanced start (e.g. the compacted variants project a coarse
        # partition that violates the fine tolerance) carries no such
        # guarantee — the cheapest balanced state may cost more than the
        # unbalanced one the walk began from — so the check only fires when
        # the result's provenance proves the start was balanced.
        violations.append(Violation(
            "sa-bookkeeping",
            f"best-seen cut {result.cut} exceeds initial cut {initial_cut} "
            f"despite a balanced start (imbalance {initial_imbalance} <= "
            f"tolerance {tolerance})",
        ))
    return violations


def _check_compacted_result(instance: Graph, result: Any) -> list[Violation]:
    """Pipeline-specific invariants of a ``CompactedResult``-shaped object."""
    violations: list[Violation] = []
    compaction = getattr(result, "compaction", None)
    if compaction is not None:
        violations.extend(check_compaction_provenance(compaction))
    coarse = getattr(result, "coarse_result", None)
    projected = getattr(result, "projected_cut", None)
    if coarse is not None and projected is not None and coarse.cut != projected:
        violations.append(Violation(
            "compaction",
            f"projection changed the cut: coarse {coarse.cut} != projected "
            f"{projected}",
        ))
    return violations


def check_result(instance: Graph, result: Any, tolerance: int | None = None) -> list[Violation]:
    """Run every applicable oracle against one algorithm result.

    ``instance`` is the graph the algorithm ran on;
    ``result`` is whatever it returned (any object exposing ``.cut`` and
    usually ``.bisection``).  Nested compaction-pipeline results are
    checked recursively (the coarse-level result against the coarse
    instance it actually ran on).
    """
    violations: list[Violation] = []
    bisection = getattr(result, "bisection", None)
    if bisection is None and isinstance(result, (Bisection,)):
        bisection = result
    if bisection is None:
        return [Violation("shape", "result exposes no bisection to check")]
    violations.extend(check_vertex_conservation(instance, bisection))
    violations.extend(check_balance(instance, bisection, tolerance))
    violations.extend(check_cut_exact(instance, bisection, getattr(result, "cut", None)))
    violations.extend(check_monotone_refinement(result))
    violations.extend(check_sa_bookkeeping(result))
    violations.extend(_check_compacted_result(instance, result))
    # Recurse into the compaction pipeline's inner results.
    compaction = getattr(result, "compaction", None)
    coarse = getattr(result, "coarse_result", None)
    if compaction is not None and coarse is not None and hasattr(coarse, "bisection"):
        coarse_instance = getattr(compaction, "coarse", None)
        if coarse_instance is not None:
            for v in check_result(coarse_instance, coarse):
                violations.append(Violation(f"coarse.{v.invariant}", v.message))
    final = getattr(result, "final_result", None)
    if final is not None and hasattr(final, "bisection"):
        for v in check_result(instance, final):
            violations.append(Violation(f"final.{v.invariant}", v.message))
    return violations
