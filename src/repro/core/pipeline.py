"""The compaction pipelines: CKL, CSA and the level loop behind them (paper Section V).

    Bisection using compaction works on a graph G = (V, E) as follows:
    1. Form a maximum random matching M of the graph G.
    2. Form a new graph G' by contracting the edges in the random matching M.
    3. Run the bisection heuristic on G' to obtain the bisection (A', B').
    4. Uncompact the edges ... and create an initial bisection (A, B) from (A', B').
    5. Use (A, B) as the starting configuration for the bisection procedure
       on the original graph.

"We shall denote the methods resulting from using compaction as compacted
simulated annealing (CSA) and compacted Kernighan-Lin (CKL)."

Any bisector with the ``bisector(graph, init=..., rng=...)`` calling
convention whose result exposes ``.bisection`` can be compacted;
:func:`ckl` and :func:`csa` are the two the paper studies.

Every compaction pipeline in the library runs the five steps through one
level loop, :func:`_level_loop`: CKL, CSA and :func:`coarse_only_bisection`
here, and recursive coalescing (:mod:`repro.core.multilevel`).  The
single-level pipelines contract exactly once; multilevel repeats steps
1-2 until a stop rule fires and steps 4-5 once per level on the way back
up.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..graphs.graph import Graph
from ..obs import span
from ..partition.bisection import Bisection, default_tolerance, rebalance
from ..partition.kl import kernighan_lin
from ..rng import resolve_rng
from .compaction import Compaction, compact
from .matching import Matching, random_maximal_matching

if TYPE_CHECKING:
    from ..partition.annealing.schedule import AnnealingSchedule

__all__ = [
    "compacted_bisection",
    "CompactedResult",
    "ckl",
    "csa",
    "coarse_only_bisection",
    "CoarseOnlyResult",
    "MultilevelResult",
]

Bisector = Callable[..., Any]
MatchingPolicy = Callable[..., Matching]
#: ``repair(fine, projected, rng) -> start``: bring a projected bisection
#: back within the fine level's balance tolerance before refinement.
Repair = Callable[[Graph, Bisection, random.Random], Bisection]

# Stop coarsening when a level shrinks the graph by less than this factor —
# the matching has degenerated (e.g. a star) and further levels waste work.
_MIN_SHRINK = 0.95


@dataclass(frozen=True)
class _Cycle:
    """What one run of :func:`_level_loop` produced.

    ``compactions`` run finest first; ``level_sizes`` and ``bisections``
    run coarsest first, one per level, the input graph's last.
    ``projected`` is the input graph's projected start before repair.
    ``final_result`` is the last refinement's result (``None`` when the
    finest refinement was skipped).
    """

    compactions: list[Compaction]
    coarse_result: Any
    final_result: Any
    projected: Bisection | None
    level_sizes: list[int]
    bisections: list[Bisection]


def _level_loop(
    graph: Graph,
    rng: random.Random | int | None,
    bisector: Bisector,
    repair: Repair,
    levels: int | None = 1,
    coarsest_size: int | None = None,
    refine_finest: bool = True,
    match: MatchingPolicy = random_maximal_matching,
    **bisector_kwargs: Any,
) -> _Cycle:
    """Match and contract, bisect the coarsest graph, then project and refine upward.

    Coarsens ``levels`` times (``None``: no limit).  With
    ``coarsest_size`` set, coarsening also stops once the graph has at
    most that many vertices, or when a level would shrink it by less than
    5% (that level is discarded).  The coarsest graph is bisected with
    ``bisector(coarsest, rng=rng)``; each level upward projects, hands the
    projection to ``repair`` and refines with
    ``bisector(fine, init=start, rng=rng)``.  With ``refine_finest`` false
    the input graph's repaired projection is the answer.
    ``bisector_kwargs`` go to every bisector call.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot bisect the empty graph")
    if coarsest_size is not None and coarsest_size < 2:
        raise ValueError("coarsest_size must be at least 2")
    rng = resolve_rng(rng)

    compactions = []
    current = graph
    while levels is None or len(compactions) < levels:
        if coarsest_size is not None and current.num_vertices <= coarsest_size:
            break
        with span("pipeline.match"):
            matching = match(current, rng)
        compaction = compact(current, matching)
        if (
            coarsest_size is not None
            and compaction.coarse.num_vertices >= _MIN_SHRINK * current.num_vertices
        ):
            break
        compactions.append(compaction)
        current = compaction.coarse

    with span("pipeline.coarse", vertices=current.num_vertices):
        coarse_result = bisector(current, rng=rng, **bisector_kwargs)
    final_result = coarse_result
    bisection = coarse_result.bisection
    projected = None
    level_sizes = [current.num_vertices]
    bisections = [bisection]
    for compaction in reversed(compactions):
        fine = compaction.original
        with span("pipeline.project"):
            projected = compaction.project(bisection)
            bisection = repair(fine, projected, rng)
        if refine_finest or fine is not graph:
            with span("pipeline.final", vertices=fine.num_vertices):
                final_result = bisector(fine, init=bisection, rng=rng, **bisector_kwargs)
            bisection = final_result.bisection
        else:
            final_result = None
        level_sizes.append(fine.num_vertices)
        bisections.append(bisection)
    return _Cycle(compactions, coarse_result, final_result, projected, level_sizes, bisections)


def _rebalance(graph: Graph, projected: Bisection, rng: random.Random) -> Bisection:
    """Rebalance a projected start to ``graph``'s tolerance.

    The coarse graph's *achievable* balance can be looser than the
    original's (e.g. an odd number of weight-2 supervertices).  Raises
    ``ValueError`` when single moves cannot reach the tolerance.
    """
    tolerance = default_tolerance(graph)
    if projected.imbalance <= tolerance:
        return projected
    return Bisection(graph, rebalance(graph, projected.assignment(), tolerance, rng))


@dataclass(frozen=True)
class CompactedResult:
    """Outcome of the five-step compaction pipeline.

    ``coarse_result`` / ``final_result`` are whatever the underlying
    bisector returned on G' and on G; ``projected_cut`` is the cut of the
    projected starting bisection (step 4), which quantifies how much work
    the coarse phase did before refinement.
    """

    bisection: Bisection
    compaction: Compaction
    coarse_result: Any
    final_result: Any
    projected_cut: int

    @property
    def cut(self) -> int:
        return self.bisection.cut


def _compacted_result(cycle: _Cycle) -> CompactedResult:
    return CompactedResult(
        bisection=cycle.bisections[-1],
        compaction=cycle.compactions[0],
        coarse_result=cycle.coarse_result,
        final_result=cycle.final_result,
        projected_cut=cycle.projected.cut,
    )


@dataclass(frozen=True)
class MultilevelResult:
    """Outcome of recursive-coalescing bisection.

    ``level_cuts[i]`` is the cut after refinement at level ``i`` (coarsest
    first, original graph last); ``level_sizes`` the matching vertex
    counts.  Monotone non-increasing cuts across levels indicate healthy
    refinement.
    """

    bisection: Bisection
    levels: int
    level_sizes: list[int] = field(default_factory=list)
    level_cuts: list[int] = field(default_factory=list)

    @property
    def cut(self) -> int:
        return self.bisection.cut


def _multilevel_result(cycle: _Cycle) -> MultilevelResult:
    return MultilevelResult(
        bisection=cycle.bisections[-1],
        levels=len(cycle.compactions) + 1,
        level_sizes=cycle.level_sizes,
        level_cuts=[bisection.cut for bisection in cycle.bisections],
    )


def compacted_bisection(
    graph: Graph,
    bisector: Bisector,
    rng: random.Random | int | None = None,
    matching_policy: MatchingPolicy = random_maximal_matching,
    **bisector_kwargs,
) -> CompactedResult:
    """Run the paper's five-step compacted bisection with ``bisector``.

    ``bisector_kwargs`` are forwarded to both the coarse and the final
    bisector call (e.g. an SA schedule).  The projected start is
    rebalanced to the original graph's tolerance before step 5.
    """
    cycle = _level_loop(
        graph, rng, bisector, _rebalance, match=matching_policy, **bisector_kwargs
    )
    return _compacted_result(cycle)


@dataclass(frozen=True)
class CoarseOnlyResult:
    """Outcome of the coarse-only (no step 5) pipeline."""

    bisection: Bisection
    compaction: Compaction
    coarse_result: Any
    projected_cut: int

    @property
    def cut(self) -> int:
        return self.bisection.cut


def coarse_only_bisection(
    graph: Graph,
    bisector: Bisector,
    rng: random.Random | int | None = None,
    **bisector_kwargs,
) -> CoarseOnlyResult:
    """Compaction steps 1-4 only: bisect the contracted graph and project.

    This is the Goldberg-Burstein [GB83] style of matching-based
    improvement the paper cites ("Kernighan-Lin based algorithms did
    better on networks of large degree") — pairs are decided at the coarse
    level and never refined individually.  Comparing it against the full
    five-step pipeline isolates the value of step 5 (the fine-level
    refinement), which ``bench_ablation_refinement`` measures.
    """
    cycle = _level_loop(
        graph, rng, bisector, _rebalance, refine_finest=False, **bisector_kwargs
    )
    return CoarseOnlyResult(
        bisection=cycle.bisections[-1],
        compaction=cycle.compactions[0],
        coarse_result=cycle.coarse_result,
        projected_cut=cycle.projected.cut,
    )


# ``ckl`` and ``csa`` name the matching at the call instead of leaving it
# to ``compacted_bisection``'s default: perfbench's tracer rebinds module
# globals and the defaults of unwrapped functions, and it wraps
# ``compacted_bisection`` itself, so only this global reaches it.


def ckl(graph: Graph, rng: random.Random | int | None = None) -> CompactedResult:
    """Compacted Kernighan-Lin (the paper's CKL)."""
    return compacted_bisection(
        graph, kernighan_lin, rng=rng, matching_policy=random_maximal_matching
    )


def csa(
    graph: Graph,
    rng: random.Random | int | None = None,
    schedule: AnnealingSchedule | None = None,
    record_trace: bool = True,
) -> CompactedResult:
    """Compacted simulated annealing (the paper's CSA).

    ``record_trace`` is forwarded to both SA stages (coarse and final).
    """
    from ..partition.annealing.sa import simulated_annealing  # only CSA runs SA

    return compacted_bisection(
        graph,
        simulated_annealing,
        rng=rng,
        matching_policy=random_maximal_matching,
        schedule=schedule,
        record_trace=record_trace,
    )
