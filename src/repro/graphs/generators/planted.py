"""The planted-bisection model ``G2set(2n, pA, pB, bis)``.

Paper, Section IV: split the vertices into sets ``A`` and ``B`` of size
``n`` each; place intra-``A`` edges with probability ``pA`` and intra-``B``
edges with probability ``pB``; then place *exactly* ``bis`` edges between
the sides, uniformly at random.  ``bis`` is thus an upper bound on the
bisection width.

The paper notes the model's weakness at low densities: with small average
degree (< 4) and large expected bisection, the true minimum bisection is
often much smaller than ``bis`` (and for average degree below two it is
usually zero).  The ``Gbreg`` model exists to fix this; ``G2set`` is still
reproduced for the appendix tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ...rng import resolve_rng
from ..graph import Graph
from .erdos_renyi import gnp

__all__ = ["g2set", "g2set_with_degree", "PlantedGraph"]


@dataclass(frozen=True)
class PlantedGraph:
    """A sampled planted-bisection graph plus its planted partition.

    ``planted_cut`` is the number of cross edges actually placed (always
    equal to the requested ``bis``); the planted sides are the test oracle
    for "did the heuristic find the planted bisection".
    """

    graph: Graph
    side_a: frozenset
    side_b: frozenset
    planted_cut: int


def g2set(
    num_vertices: int,
    p_a: float,
    p_b: float,
    bis: int,
    rng: random.Random | int | None = None,
) -> PlantedGraph:
    """Sample ``G2set(2n, pA, pB, bis)``.

    Side ``A`` is vertices ``0..n-1``, side ``B`` is ``n..2n-1``.
    Raises ``ValueError`` for infeasible parameters (odd ``2n``,
    ``bis > n**2``, probabilities outside ``[0, 1]``).
    """
    if num_vertices < 2 or num_vertices % 2:
        raise ValueError("num_vertices must be even and at least 2")
    n = num_vertices // 2
    if not 0.0 <= p_a <= 1.0 or not 0.0 <= p_b <= 1.0:
        raise ValueError("probabilities must be in [0, 1]")
    if not 0 <= bis <= n * n:
        raise ValueError(f"bis must be in [0, {n * n}], got {bis}")
    rng = resolve_rng(rng)

    g = Graph()
    for v in range(num_vertices):
        g.add_vertex(v)

    # Intra-side edges: sample each side as an independent Gnp and copy in.
    for offset, p in ((0, p_a), (n, p_b)):
        side = gnp(n, p, rng)
        for u, v, _ in side.edges():
            g.add_edge(offset + u, offset + v)

    # Exactly `bis` distinct cross edges, uniform over the n*n cross pairs.
    placed: set[tuple[int, int]] = set()
    while len(placed) < bis:
        a = rng.randrange(n)
        b = n + rng.randrange(n)
        if (a, b) not in placed:
            placed.add((a, b))
            g.add_edge(a, b)

    return PlantedGraph(
        graph=g,
        side_a=frozenset(range(n)),
        side_b=frozenset(range(n, num_vertices)),
        planted_cut=bis,
    )


def g2set_with_degree(
    num_vertices: int,
    avg_degree: float,
    bis: int,
    rng: random.Random | int | None = None,
) -> PlantedGraph:
    """Sample ``G2set`` with ``pA = pB`` chosen for a target average degree.

    This matches how the appendix tables are parameterized ("G2set(5000,
    pA, pB, b) with average degree 2.5" etc.).
    """
    from ..properties import planted_probability_for_degree

    p = planted_probability_for_degree(num_vertices, avg_degree, bis)
    return g2set(num_vertices, p, p, bis, rng)
