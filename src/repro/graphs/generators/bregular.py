"""The ``Gbreg(2n, b, d)`` model: random d-regular graphs with planted bisection b.

Paper, Section IV (model introduced in [BCLS87]): "This class of graphs
consists of all simple regular graphs with 2n nodes, where each node has
degree d and the graph has bisection width b."  It is the paper's primary
benchmark model because, unlike ``Gnp`` and ``G2set``, the planted
bisection is (with high probability, for b well below the expected random
cut) the unique minimum bisection — so heuristics can be scored against a
known target.

Construction: plant exactly ``b`` cross edges between sides ``A`` and
``B`` (no vertex taking more than ``d`` of them), then complete each side
to the residual degree sequence with the configuration model
(:mod:`.regular`).  The result is exactly d-regular with cut ``b`` across
the planted sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ...rng import resolve_rng
from ..graph import Graph
from .regular import sample_with_degrees

__all__ = [
    "gbreg",
    "BisectionRegularGraph",
    "feasible_bisection_widths",
    "parity_fixed_width",
]


@dataclass(frozen=True)
class BisectionRegularGraph:
    """A sampled ``Gbreg`` graph plus its planted bisection metadata."""

    graph: Graph
    side_a: frozenset
    side_b: frozenset
    planted_width: int
    degree: int


def feasible_bisection_widths(num_vertices: int, degree: int, limit: int) -> list[int]:
    """Planted widths ``b <= limit`` compatible with ``Gbreg(2n, b, d)`` parity.

    Each side must absorb ``n*d - b`` intra-side stubs, which must be even;
    hence ``b ≡ n*d (mod 2)``.  Benches use this to sweep valid ``b``.
    """
    if num_vertices % 2:
        raise ValueError("num_vertices must be even")
    n = num_vertices // 2
    parity = (n * degree) % 2
    return [b for b in range(limit + 1) if b % 2 == parity]


def parity_fixed_width(num_vertices: int, degree: int, width: int) -> int:
    """``width`` rounded up to the nearest ``Gbreg(2n, b, d)``-feasible ``b``.

    The same parity rule as :func:`feasible_bisection_widths`: the bench
    table sweeps and the ``study`` grids both round a nominal width here.
    """
    n = num_vertices // 2
    return width if (n * degree - width) % 2 == 0 else width + 1


def gbreg(
    num_vertices: int,
    b: int,
    d: int,
    rng: random.Random | int | None = None,
    max_restarts: int = 100,
) -> BisectionRegularGraph:
    """Sample ``Gbreg(2n, b, d)``.

    Side ``A`` is vertices ``0..n-1``, side ``B`` is ``n..2n-1``; the
    planted cut is exactly ``b``.  Raises ``ValueError`` on infeasible
    parameters: odd ``2n``, ``d >= n``, ``b > n*d`` (not enough stubs),
    ``b > n*n`` (not enough distinct cross pairs), or the parity condition
    ``b ≢ n*d (mod 2)`` (see :func:`feasible_bisection_widths`).
    """
    if num_vertices < 2 or num_vertices % 2:
        raise ValueError("num_vertices must be even and at least 2")
    n = num_vertices // 2
    if d < 0 or d >= n:
        raise ValueError(f"degree must be in [0, n-1] = [0, {n - 1}], got {d}")
    if not 0 <= b <= min(n * d, n * n):
        raise ValueError(f"b must be in [0, {min(n * d, n * n)}], got {b}")
    if (n * d - b) % 2:
        raise ValueError(
            f"infeasible parity: n*d - b = {n * d - b} must be even "
            f"(choose b with b % 2 == {(n * d) % 2})"
        )
    rng = resolve_rng(rng)

    side_a = list(range(n))
    side_b = list(range(n, num_vertices))

    for _ in range(max_restarts):
        # Plant exactly b distinct cross edges, capping cross-degree at d so
        # the residual intra-side degrees stay nonnegative.
        cross: set[tuple[int, int]] = set()
        cross_degree = dict.fromkeys(range(num_vertices), 0)
        stalled = False
        attempts = 0
        while len(cross) < b:
            attempts += 1
            if attempts > 200 * max(b, 1) + 2000:
                stalled = True
                break
            u = rng.randrange(n)
            v = n + rng.randrange(n)
            if (u, v) in cross or cross_degree[u] >= d or cross_degree[v] >= d:
                continue
            cross.add((u, v))
            cross_degree[u] += 1
            cross_degree[v] += 1
        if stalled:
            continue

        try:
            part_a = sample_with_degrees(
                {v: d - cross_degree[v] for v in side_a}, rng, max_restarts=max_restarts
            )
            part_b = sample_with_degrees(
                {v: d - cross_degree[v] for v in side_b}, rng, max_restarts=max_restarts
            )
        except RuntimeError:
            continue  # unlucky residual sequence; replant and retry

        g = Graph()
        for v in range(num_vertices):
            g.add_vertex(v)
        for part in (part_a, part_b):
            for u, v, _ in part.edges():
                g.add_edge(u, v)
        for u, v in cross:
            g.add_edge(u, v)
        return BisectionRegularGraph(
            graph=g,
            side_a=frozenset(side_a),
            side_b=frozenset(side_b),
            planted_width=b,
            degree=d,
        )

    raise RuntimeError(f"could not sample Gbreg({num_vertices}, {b}, {d}) in {max_restarts} tries")
