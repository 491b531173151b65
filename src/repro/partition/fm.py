"""Fiduccia-Mattheyses refinement — the single-move variant of Kernighan-Lin.

FM is "the most widely used" family of KL variations the paper alludes to
(Section III) and the standard refinement engine of multilevel
partitioners, which is why the multilevel extension
(:mod:`repro.core.multilevel`) uses it: unlike the pair-swap KL in
:mod:`repro.partition.kl`, FM moves *single* vertices, so it refines
contracted graphs with mixed vertex weights without needing equal-weight
pairs.

A pass moves every vertex exactly once (best-gain first, subject to a
loose balance window), then rolls back to the best prefix that is
*strictly* balanced.  The loose window — wide enough for the heaviest
single vertex to cross — is what lets the search escape the
balance-preserving-swap subspace; strict balance is restored by the prefix
choice.  If the pass started out of balance (which happens when a
coarse-level solution is projected onto a finer graph with a smaller
achievable imbalance), the prefix minimizing imbalance is taken instead,
so FM doubles as a balance repairer.

Like KL, a run carries one id-indexed side list and one gain list across
its passes (:mod:`repro.kernels.fm`) and builds the label dict once, at
the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graphs.csr import csr_gains_cut, csr_move_gains, csr_side_weights, csr_view
from ..graphs.graph import Graph
from ..kernels.fm import fm_pass_csr
from ..obs import counter, span
from ..rng import resolve_rng
from .bisection import Bisection, default_tolerance
from .random_init import random_sides

__all__ = ["fiduccia_mattheyses", "FMResult"]


@dataclass(frozen=True)
class FMResult:
    """Outcome of an FM run (same shape as ``KLResult``)."""

    bisection: Bisection
    initial_cut: int
    passes: int
    pass_gains: list[int] = field(default_factory=list)
    moves: int = 0

    @property
    def cut(self) -> int:
        return self.bisection.cut

    def cut_trace(self) -> list[int]:
        """Cut after each applied pass: ``[initial, after pass 1, ...]``.

        Monotone non-increasing whenever the run *started* balanced (a
        balance-repair pass may trade cut for balance); the verification
        oracles rely on this.
        """
        trace = [self.initial_cut]
        for gain in self.pass_gains:
            trace.append(trace[-1] - gain)
        return trace


def fiduccia_mattheyses(
    graph: Graph,
    init: Bisection | None = None,
    rng: random.Random | int | None = None,
    max_passes: int | None = None,
    balance_tolerance: int | None = None,
) -> FMResult:
    """Bisect (or refine) ``graph`` with Fiduccia-Mattheyses passes.

    ``balance_tolerance`` is the *strict* tolerance of the returned
    bisection; the internal wander window additionally admits one
    heaviest-vertex move past it.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot bisect the empty graph")
    if balance_tolerance is not None and balance_tolerance < 0:
        raise ValueError(f"balance_tolerance must be nonnegative, got {balance_tolerance}")
    rng = resolve_rng(rng)

    csr = csr_view(graph)
    if init is not None:
        if init.graph is not graph and init.graph != graph:
            raise ValueError("init bisection belongs to a different graph")
        sides = init.sides_over(csr)
    else:
        sides = random_sides(graph, rng)

    strict_tol = default_tolerance(graph) if balance_tolerance is None else balance_tolerance
    max_weight = max(csr.vertex_weight_list())
    loose_tol = max(strict_tol, 2 * max_weight)

    gains = csr_move_gains(csr, sides)
    initial_cut = csr_gains_cut(csr, sides, gains)
    cut = initial_cut
    passes = 0
    total_moves = 0
    pass_gains: list[int] = []
    stats: dict[str, int] = {}
    with span("fm.run", vertices=graph.num_vertices):
        while max_passes is None or passes < max_passes:
            w0, w1 = csr_side_weights(csr, sides)
            was_balanced = abs(w0 - w1) <= strict_tol
            with span("fm.pass"):
                gain, kept = fm_pass_csr(csr, sides, gains, strict_tol, loose_tol, stats)
            passes += 1
            cut -= gain
            total_moves += kept
            if kept:
                pass_gains.append(gain)
            if gain <= 0 and was_balanced:
                break
            if kept == 0:
                break

    counter("fm_runs_total").inc()
    counter("fm_passes_total").inc(passes)
    counter("fm_moves_considered_total").inc(stats.get("moves_considered", 0))
    counter("fm_moves_committed_total").inc(total_moves)
    counter("fm_stale_pops_total").inc(stats.get("stale_pops", 0))
    counter("fm_stash_restores_total").inc(stats.get("stash_restores", 0))

    result = Bisection.from_id_sides(graph, sides)
    assert result.cut == cut, "incremental cut diverged from recomputation"
    return FMResult(
        bisection=result,
        initial_cut=initial_cut,
        passes=passes,
        pass_gains=pass_gains,
        moves=total_moves,
    )
