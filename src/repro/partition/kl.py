"""The Kernighan-Lin graph bisection heuristic (paper Fig. 2, [KL70]).

One *pass* (the paper's Figure 2):

1. compute every vertex's gain ``g_v`` — the cut reduction of moving ``v``
   across (edge weight to the other side minus edge weight to its own);
2. repeatedly pick the unlocked pair ``a in A, b in B`` maximizing
   ``g_ab = g_a + g_b - 2 w(a, b)``, lock it, and update neighbor gains as
   if the pair had been exchanged;
3. after all vertices are paired, find the prefix ``k`` of the pair
   sequence with the largest cumulative gain and actually exchange those
   ``k`` pairs.

Step 2 stops early once no later prefix can beat the best one: an edge
between two locked vertices keeps its pass-start cut state in every later
prefix, so once those edges' cut weight reaches the cut of the best prefix,
the rest of the sequence cannot change the ``k`` that step 3 picks.

Passes repeat until a pass yields no positive gain (or ``max_passes``).

Pair selection uses lazy max-heaps plus the bound ``g_ab <= g_a + g_b``:
candidates are scanned in decreasing ``g_a + g_b`` order and the scan
stops as soon as that upper bound cannot beat the best concrete pair.  On
bounded-degree graphs each selection touches O(1) candidates, making a
pass effectively ``O(|E| log |V|)`` instead of the textbook ``O(n^2)``.
Candidates examined but not chosen park in a sorted *pending* queue that
is merged with the heap on the next selection, instead of being re-pushed
(and later re-sifted) with an identical fresh tuple every round.

Weighted (contracted) graphs: to preserve exact balance, only pairs of
equal vertex weight are exchanged — each weight class gets its own pair
of heaps, and each step picks the best pair across classes.  A graph of
unit or uniform vertex weights is the one-class case of the same kernel.

The pass runs over the graph's :class:`~repro.graphs.csr.CSRGraph` view
with packed ``(gain, rank)`` integer heap keys (:mod:`repro.kernels.kl`):
ids follow insertion order and gain ties break by label *rank*, the
position of the label in sorted order.  Labels that do not sort (mixed
``int`` and ``str``) rank in insertion order.

A run keeps one id-indexed side list and one gain list from start to
finish.  Step 1 of every pass after the first reads the carried gains:
the previous pass's committed swaps were applied to them move by move
(:func:`~repro.graphs.csr.csr_flip`), which leaves exactly the gains a
recount would give.  A projected start hands over its side list and its
cut, counted once for the pipeline's report, and the result takes the
final list; no label dict is built unless a caller asks for one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from ..graphs.csr import (
    CSRGraph,
    csr_cut_weight,
    csr_flip,
    csr_gains_cut,
    csr_move_gains,
    csr_view,
)
from ..graphs.graph import Graph
from ..kernels.kl import kl_sequence
from ..obs import counter, span
from .bisection import Bisection
from .random_init import random_sides

__all__ = ["kernighan_lin", "kl_pass", "KLResult"]


@dataclass(frozen=True)
class KLResult:
    """Outcome of a Kernighan-Lin run.

    ``pass_gains[i]`` is the cut improvement applied by pass ``i``; the
    final (zero-gain) pass that triggers termination is not recorded.
    """

    bisection: Bisection
    initial_cut: int
    passes: int
    pass_gains: list[int] = field(default_factory=list)
    swaps: int = 0

    @property
    def cut(self) -> int:
        return self.bisection.cut

    def cut_trace(self) -> list[int]:
        """Cut after each applied pass: ``[initial, after pass 1, ...]``.

        The verification oracles check this trace is monotone non-increasing
        and that its last entry matches the recomputed final cut.
        """
        trace = [self.initial_cut]
        for gain in self.pass_gains:
            trace.append(trace[-1] - gain)
        return trace


def _kl_pass_csr(
    csr: CSRGraph, sides: list[int], gains: list[int], cut: int, stats: dict | None
) -> tuple[int, int]:
    """One KL pass over CSR ids: select the pair sequence, apply its best prefix.

    ``gains`` must be the move gains of ``sides`` and ``cut`` its cut
    weight; sides and gains are advanced past the exchanged pairs in place.
    """
    sequence = kl_sequence(csr, sides, gains, cut, stats)

    # Apply the shortest prefix with the largest total gain, if positive.
    running = list(accumulate(map(itemgetter(2), sequence)))
    best_total = max(running, default=0)
    if best_total <= 0:
        return 0, 0
    best_k = running.index(best_total) + 1
    csr_flip(csr, sides, gains, [v for a, b, _ in sequence[:best_k] for v in (a, b)])
    return best_total, best_k


def kl_pass(
    graph: Graph, assignment: dict, stats: dict | None = None
) -> tuple[int, int]:
    """Run one Kernighan-Lin pass, mutating ``assignment``.

    Returns ``(applied_gain, swaps_applied)``: the cut reduction achieved
    by exchanging the best prefix of the pair sequence, and the number of
    pairs exchanged (0 when the pass found no improvement).

    ``stats``, when given, accumulates selection-machinery counts
    (``selections`` / ``stale_pops`` / ``candidates`` / ``prune_hits``)
    for the observability layer; it never influences the pass.
    """
    csr = csr_view(graph)
    sides = csr.sides_list(assignment)
    result = _kl_pass_csr(
        csr, sides, csr_move_gains(csr, sides), csr_cut_weight(csr, sides), stats
    )
    assignment.update(zip(csr.labels, sides))
    return result


def kernighan_lin(
    graph: Graph,
    init: Bisection | None = None,
    rng: random.Random | int | None = None,
    max_passes: int | None = None,
) -> KLResult:
    """Bisect ``graph`` with Kernighan-Lin.

    ``init`` supplies the starting bisection (the compaction pipeline uses
    this to seed KL with the projected coarse solution); otherwise a random
    balanced bisection drawn from ``rng`` is used.  Passes run until one
    yields no improvement, or ``max_passes``.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot bisect the empty graph")
    csr = csr_view(graph)
    if init is not None:
        if init.graph is not graph and init.graph != graph:
            raise ValueError("init bisection belongs to a different graph")
        sides = init.sides_over(csr)
    else:
        sides = random_sides(graph, rng)
    gains = csr_move_gains(csr, sides)
    # The pipeline reports a projected start's cut, so count it there once.
    initial_cut = csr_gains_cut(csr, sides, gains) if init is None else init.cut
    cut = initial_cut
    pass_gains: list[int] = []
    swaps = 0
    passes = 0
    stats: dict[str, int] = {}
    with span("kl.run", vertices=graph.num_vertices):
        while max_passes is None or passes < max_passes:
            with span("kl.pass"):
                gain, applied = _kl_pass_csr(csr, sides, gains, cut, stats)
            passes += 1
            if applied == 0:
                break
            cut -= gain
            swaps += applied
            pass_gains.append(gain)

    counter("kl_runs_total").inc()
    counter("kl_passes_total").inc(passes)
    counter("kl_swaps_total").inc(swaps)
    counter("kl_selections_total").inc(stats.get("selections", 0))
    counter("kl_stale_pops_total").inc(stats.get("stale_pops", 0))
    counter("kl_candidates_total").inc(stats.get("candidates", 0))
    counter("kl_prune_hits_total").inc(stats.get("prune_hits", 0))

    result = Bisection.from_id_sides(graph, sides)
    assert result.cut == cut, "incremental cut diverged from recomputation"
    return KLResult(
        bisection=result,
        initial_cut=initial_cut,
        passes=passes,
        pass_gains=pass_gains,
        swaps=swaps,
    )
