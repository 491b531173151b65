"""Graph property helpers: degree statistics, regularity, model diagnostics.

The paper's graph-model discussion (Section IV) revolves around average
degree and expected bisection width; these helpers compute the quantities
the benches and the model-study example report.
"""

from __future__ import annotations

import math
from collections import Counter

from .graph import Graph

__all__ = [
    "degree_histogram",
    "min_degree",
    "max_degree",
    "is_regular",
    "is_simple",
    "expected_gnp_degree",
    "gnp_probability_for_degree",
    "planted_probability_for_degree",
    "random_bisection_expected_cut",
]


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Map ``degree -> count of vertices with that degree``."""
    return dict(Counter(graph.degree(v) for v in graph.vertices()))


def min_degree(graph: Graph) -> int:
    return min((graph.degree(v) for v in graph.vertices()), default=0)


def max_degree(graph: Graph) -> int:
    return max((graph.degree(v) for v in graph.vertices()), default=0)


def is_regular(graph: Graph, d: int | None = None) -> bool:
    """True iff every vertex has the same degree (equal to ``d`` when given)."""
    degrees = {graph.degree(v) for v in graph.vertices()}
    if not degrees:
        return True
    if len(degrees) != 1:
        return False
    return d is None or degrees == {d}


def is_simple(graph: Graph) -> bool:
    """True iff the graph has no parallel edges or self-loops.

    :class:`~repro.graphs.graph.Graph` structurally forbids both, so this
    reduces to checking that no *merged* parallel edge left a weight > 1
    on a unit-vertex-weight graph.  On contracted graphs weights > 1 are
    legitimate, so this check only applies to uncontracted graphs.
    """
    if not graph.is_uniform_vertex_weight():
        raise ValueError("is_simple is only meaningful for uncontracted graphs")
    return all(w == 1 for _, _, w in graph.edges())


def expected_gnp_degree(num_vertices: int, p: float) -> float:
    """Expected vertex degree of ``Gnp(num_vertices, p)``: ``(n - 1) p``."""
    return (num_vertices - 1) * p


def gnp_probability_for_degree(num_vertices: int, avg_degree: float) -> float:
    """Edge probability ``p`` that gives ``Gnp`` the requested average degree."""
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    p = avg_degree / (num_vertices - 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"avg_degree {avg_degree} is infeasible for n={num_vertices}")
    return p


def planted_probability_for_degree(
    num_vertices: int, avg_degree: float, cross_edges: int
) -> float:
    """Intra-side edge probability for ``G2set(2n, pA, pB, bis)``.

    Solves for the ``pA = pB`` that makes the *overall* average degree equal
    ``avg_degree`` given exactly ``cross_edges`` planted cross edges:
    total edges ``m = 2 * pA * C(n, 2) + cross_edges`` and
    ``avg_degree = 2m / 2n``.
    """
    if num_vertices % 2:
        raise ValueError("num_vertices must be even")
    n = num_vertices // 2
    if n < 2:
        raise ValueError("need at least 4 vertices")
    target_edges = avg_degree * num_vertices / 2.0
    intra_edges = target_edges - cross_edges
    pairs_per_side = n * (n - 1) / 2.0
    p = intra_edges / (2.0 * pairs_per_side)
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"avg_degree {avg_degree} with {cross_edges} cross edges is infeasible "
            f"for 2n={num_vertices}"
        )
    return p


def random_bisection_expected_cut(graph: Graph) -> float:
    """Expected cut of a uniformly random bisection.

    Each edge is cut with probability ``n / (2n - 1)`` (just over one half),
    so the expected random cut is ``|E| * n / (2n - 1)``.  Section IV's
    criticism of the ``Gnp`` model is that its *minimum* cut is close to
    this value, so random partitions are near-optimal and the model cannot
    separate good heuristics from mediocre ones.
    """
    two_n = graph.num_vertices
    if two_n < 2:
        return 0.0
    n = two_n // 2
    return graph.total_edge_weight * n / (two_n - 1)


def degree_statistics(graph: Graph) -> dict[str, float]:
    """Summary dict: min/max/mean/std of degrees (population std)."""
    degrees = [graph.degree(v) for v in graph.vertices()]
    if not degrees:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}
    mean = sum(degrees) / len(degrees)
    var = sum((d - mean) ** 2 for d in degrees) / len(degrees)
    return {
        "min": float(min(degrees)),
        "max": float(max(degrees)),
        "mean": mean,
        "std": math.sqrt(var),
    }


__all__.append("degree_statistics")
