"""Random initial bisections.

The paper's protocol (Section VI) starts every heuristic "from two
different randomly generated initial bisections" and reports the best of
the two.  :func:`random_bisection` is that starting-point generator; the
best-of-two logic lives in :mod:`repro.bench.runner`.
"""

from __future__ import annotations

import random

from ..graphs.csr import csr_view
from ..graphs.graph import Graph
from ..rng import resolve_rng
from .bisection import Bisection, default_tolerance, rebalance

__all__ = ["random_bisection", "random_assignment", "random_sides"]


def random_sides(
    graph: Graph,
    rng: random.Random | int | None = None,
    tolerance: int | None = None,
) -> list[int]:
    """A uniformly random balanced side list, indexed by ``csr_view(graph)``'s ids.

    For plain graphs: shuffle and split in half (exactly balanced, every
    balanced bisection equally likely).  For weighted (contracted) graphs:
    shuffle, then assign heaviest-first to the lighter side (randomized
    LPT, which lands within one lightest-vertex weight of perfect), then
    repair with :func:`~repro.partition.bisection.rebalance` toward the
    requested tolerance (default: the minimum achievable imbalance).  If
    single moves cannot reach the tolerance — possible with very heavy
    supervertices after deep coarsening — the best reachable split is
    returned; weight-aware refiners (FM) finish the repair.

    Ids follow the graph's vertex order, so shuffling ids draws the same
    permutation a shuffle of the vertex list would.
    """
    rng = resolve_rng(rng)
    csr = csr_view(graph)
    n = csr.num_vertices
    order = list(range(n))
    rng.shuffle(order)

    if csr.unit_vertex_weights:
        sides = [1] * n
        # For odd |V| the extra vertex lands on side 0 arbitrarily; that is
        # within the default tolerance of 1.
        for i in order[: n - n // 2]:
            sides[i] = 0
        return sides

    # Heaviest-first keeps the greedy split tight; the shuffle above makes
    # the order random among equal weights.
    weight = csr.vertex_weight_list()
    order.sort(key=weight.__getitem__, reverse=True)
    sides = [0] * n
    w0 = w1 = 0
    for i in order:
        if w0 <= w1:
            w0 += weight[i]
        else:
            sides[i] = 1
            w1 += weight[i]
    if tolerance is None:
        tolerance = default_tolerance(graph)
    if abs(w0 - w1) > tolerance:
        assignment = csr.assignment_dict(sides)
        try:
            rebalance(graph, assignment, tolerance, rng)
        except ValueError:
            pass  # tolerance unreachable by single moves; refiners repair
        sides = csr.sides_list(assignment)
    return sides


def random_assignment(
    graph: Graph,
    rng: random.Random | int | None = None,
    tolerance: int | None = None,
) -> dict:
    """:func:`random_sides` as a vertex -> side dict."""
    return csr_view(graph).assignment_dict(random_sides(graph, rng, tolerance))


def random_bisection(
    graph: Graph,
    rng: random.Random | int | None = None,
    tolerance: int | None = None,
) -> Bisection:
    """A uniformly random balanced :class:`Bisection` of ``graph``."""
    return Bisection.from_id_sides(graph, random_sides(graph, rng, tolerance))
