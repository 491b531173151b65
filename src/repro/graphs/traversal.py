"""Graph traversal primitives: BFS, DFS, connected components, cycles.

These are substrates for the generators (connectivity checks), the exact
baselines (cycle decomposition of degree-2 graphs), and the model-study
example.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterator

from .graph import Graph

__all__ = [
    "bfs_order",
    "bfs_layers",
    "dfs_order",
    "connected_components",
    "is_connected",
    "shortest_path_lengths",
    "cycle_decomposition",
]

Vertex = Hashable


def bfs_order(graph: Graph, source: Vertex) -> list[Vertex]:
    """Vertices reachable from ``source`` in breadth-first order."""
    seen = {source}
    order = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order


def bfs_layers(graph: Graph, source: Vertex) -> Iterator[list[Vertex]]:
    """Yield BFS layers (lists of vertices at equal distance from ``source``)."""
    seen = {source}
    layer = [source]
    while layer:
        yield layer
        nxt: list[Vertex] = []
        for u in layer:
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        layer = nxt


def dfs_order(graph: Graph, source: Vertex) -> list[Vertex]:
    """Vertices reachable from ``source`` in (iterative) depth-first preorder."""
    seen = {source}
    order: list[Vertex] = []
    stack = [source]
    while stack:
        u = stack.pop()
        order.append(u)
        # Reversed so the first-listed neighbor is visited first, matching
        # the recursive formulation.
        for v in reversed(list(graph.neighbors(u))):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return order


def connected_components(graph: Graph) -> list[list[Vertex]]:
    """All connected components, each as a list of vertices."""
    seen: set[Vertex] = set()
    components: list[list[Vertex]] = []
    for v in graph.vertices():
        if v in seen:
            continue
        component = bfs_order(graph, v)
        seen.update(component)
        components.append(component)
    return components


def is_connected(graph: Graph) -> bool:
    """True iff the graph has exactly one connected component (or is empty)."""
    n = graph.num_vertices
    if n == 0:
        return True
    first = next(iter(graph.vertices()))
    return len(bfs_order(graph, first)) == n


def shortest_path_lengths(graph: Graph, source: Vertex) -> dict[Vertex, int]:
    """Unweighted shortest-path distance from ``source`` to each reachable vertex."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def cycle_decomposition(graph: Graph) -> list[list[Vertex]]:
    """Decompose a graph whose every vertex has degree 2 into its simple cycles.

    ``Gbreg(2n, b, 2)`` graphs are exactly disjoint unions of chordless
    cycles (paper Section VI), for which bisection is solvable exactly;
    this is the substrate for :func:`repro.partition.dfs_cycle.bisect_cycles`.

    Raises ``ValueError`` if any vertex does not have degree 2.
    """
    for v in graph.vertices():
        if graph.degree(v) != 2:
            raise ValueError(f"vertex {v!r} has degree {graph.degree(v)}, expected 2")
    cycles: list[list[Vertex]] = []
    seen: set[Vertex] = set()
    for start in graph.vertices():
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        prev = start
        current = next(iter(graph.neighbors(start)))
        while current != start:
            cycle.append(current)
            seen.add(current)
            a, b = graph.neighbors(current)
            prev, current = current, (b if a == prev else a)
        cycles.append(cycle)
    return cycles
