"""The bisection value type and balance utilities.

A *bisection* of ``G = (V, E)`` splits ``V`` into two sides of (as nearly
as possible) equal total vertex weight; its *cut* is the total weight of
edges with one endpoint on each side.  On plain graphs (all vertex weights
1) this is exactly the paper's definition; the weighted generalization is
what compaction needs, because contracted supervertices carry weight 2 (or
more, under recursive coalescing).

Partition heuristics operate on a mutable ``assignment`` dict
(``vertex -> 0 | 1``) for speed, and wrap results in an immutable
:class:`Bisection` at their boundary.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping

from ..graphs.csr import cached_csr, csr_cut_weight, csr_side_weights
from ..graphs.graph import Graph

__all__ = [
    "Bisection",
    "cut_weight",
    "side_weights",
    "minimum_achievable_imbalance",
    "minimum_achievable_deviation",
    "default_tolerance",
    "rebalance",
]

Vertex = Hashable


def cut_weight(graph: Graph, assignment: Mapping[Vertex, int]) -> int:
    """Total weight of edges crossing the partition described by ``assignment``.

    Uses the graph's CSR view when one is already compiled (the partition
    drivers compile it eagerly); a one-off query on a cold graph keeps the
    plain edge walk rather than paying a compile it would not amortize.
    """
    csr = cached_csr(graph)
    if csr is not None:
        return csr_cut_weight(csr, csr.sides_list(assignment))
    total = 0
    for u, v, w in graph.edges():
        if assignment[u] != assignment[v]:
            total += w
    return total


def side_weights(graph: Graph, assignment: Mapping[Vertex, int]) -> tuple[int, int]:
    """Total vertex weight on side 0 and side 1."""
    csr = cached_csr(graph)
    if csr is not None:
        return csr_side_weights(csr, csr.sides_list(assignment))
    w0 = w1 = 0
    for v in graph.vertices():
        if assignment[v] == 0:
            w0 += graph.vertex_weight(v)
        else:
            w1 += graph.vertex_weight(v)
    return w0, w1


def minimum_achievable_imbalance(weights: Iterable[int]) -> int:
    """Smallest possible ``|w(A) - w(B)|`` over all 2-partitions of ``weights``.

    Computed with a bitset subset-sum sweep (``reachable |= reachable << w``),
    which is fast even for thousands of vertices.  For unit weights this is
    ``total % 2``; for contracted graphs (weights in {1, 2}) it is 0, 1, or 2.
    """
    reachable = 1
    total = 0
    for w in weights:
        reachable |= reachable << w
        total += w
    best = total
    half = total // 2
    # Scan sums downward from floor(total/2); the first reachable sum s gives
    # the minimum |total - 2s| on this side of half (and by symmetry overall).
    for s in range(half, -1, -1):
        if (reachable >> s) & 1:
            best = total - 2 * s
            break
    return best


def minimum_achievable_deviation(weights: Iterable[int], target_diff: int) -> int:
    """Smallest possible ``|w(A) - w(B) - target_diff|`` over all 2-partitions.

    Generalizes :func:`minimum_achievable_imbalance` (the ``target_diff=0``
    case) to the unequal splits used by k-way recursive bisection.  Uses
    the same bitset subset-sum sweep: a side-0 sum of ``s`` gives a diff
    of ``2s - total``, so we scan reachable sums around
    ``(total + target_diff) / 2``.
    """
    reachable = 1
    total = 0
    for w in weights:
        reachable |= reachable << w
        total += w
    best = abs(target_diff) + total  # worse than any achievable value
    for s in range(total + 1):
        if (reachable >> s) & 1:
            best = min(best, abs(2 * s - total - target_diff))
    return best


def default_tolerance(graph: Graph) -> int:
    """Default balance tolerance for ``graph``.

    For plain graphs: 0 when ``|V|`` is even, 1 when odd (the paper's
    graphs all have an even vertex count, so this is 0 there).  For
    weighted (contracted) graphs: the exact minimum achievable imbalance.
    """
    if graph.is_uniform_vertex_weight():
        return graph.num_vertices % 2
    return minimum_achievable_imbalance(
        graph.vertex_weight(v) for v in graph.vertices()
    )


class Bisection:
    """An immutable two-way partition of a graph's vertices.

    >>> from repro.graphs.generators import ladder_graph
    >>> g = ladder_graph(4)  # vertices 0..3 top rail, 4..7 bottom rail
    >>> b = Bisection.from_sides(g, [0, 1, 4, 5])
    >>> b.cut          # rails cut once each between positions 1 and 2
    2
    >>> b.imbalance
    0
    """

    __slots__ = ("_graph", "_assignment", "_cut", "_weights")

    def __init__(self, graph: Graph, assignment: Mapping[Vertex, int]):
        missing = [v for v in graph.vertices() if v not in assignment]
        if missing:
            raise ValueError(f"assignment missing {len(missing)} vertices, e.g. {missing[0]!r}")
        bad = [v for v in graph.vertices() if assignment[v] not in (0, 1)]
        if bad:
            raise ValueError(f"assignment values must be 0 or 1 (vertex {bad[0]!r})")
        self._graph = graph
        self._assignment = {v: assignment[v] for v in graph.vertices()}
        self._cut: int | None = None
        self._weights: tuple[int, int] | None = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_sides(cls, graph: Graph, side_zero: Iterable[Vertex]) -> "Bisection":
        """Build from the set of vertices on side 0; the rest go to side 1."""
        zero = set(side_zero)
        unknown = zero - set(graph.vertices())
        if unknown:
            raise ValueError(f"vertices not in graph: {sorted(map(repr, unknown))[:3]}")
        return cls(graph, {v: 0 if v in zero else 1 for v in graph.vertices()})

    # -- accessors ----------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    def side_of(self, v: Vertex) -> int:
        return self._assignment[v]

    def side(self, which: int) -> frozenset:
        """The set of vertices on side ``which`` (0 or 1)."""
        if which not in (0, 1):
            raise ValueError("side must be 0 or 1")
        return frozenset(v for v, s in self._assignment.items() if s == which)

    def assignment(self) -> dict[Vertex, int]:
        """A mutable copy of the vertex -> side map."""
        return dict(self._assignment)

    @property
    def cut(self) -> int:
        """Total weight of cut edges (cached)."""
        if self._cut is None:
            self._cut = cut_weight(self._graph, self._assignment)
        return self._cut

    @property
    def weights(self) -> tuple[int, int]:
        """Vertex-weight totals ``(w(side 0), w(side 1))`` (cached)."""
        if self._weights is None:
            self._weights = side_weights(self._graph, self._assignment)
        return self._weights

    @property
    def sizes(self) -> tuple[int, int]:
        """Vertex counts per side."""
        n1 = sum(self._assignment.values())
        return len(self._assignment) - n1, n1

    @property
    def imbalance(self) -> int:
        w0, w1 = self.weights
        return abs(w0 - w1)

    def is_balanced(self, tolerance: int | None = None) -> bool:
        """True iff the weighted imbalance is within ``tolerance``.

        ``tolerance=None`` uses :func:`default_tolerance` of the graph.
        """
        if tolerance is None:
            tolerance = default_tolerance(self._graph)
        return self.imbalance <= tolerance

    def matches_sides(self, side_a: Iterable[Vertex]) -> bool:
        """True iff this bisection equals the given split (up to side renaming)."""
        target = frozenset(side_a)
        return self.side(0) == target or self.side(1) == target

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bisection):
            return NotImplemented
        if self._graph is not other._graph and self._graph != other._graph:
            return False
        same = all(self._assignment[v] == other._assignment[v] for v in self._assignment)
        if same:
            return True
        return all(self._assignment[v] != other._assignment[v] for v in self._assignment)

    def __repr__(self) -> str:
        n0, n1 = self.sizes
        return f"Bisection(cut={self.cut}, sides=({n0}, {n1}), imbalance={self.imbalance})"


def rebalance(
    graph: Graph,
    assignment: dict[Vertex, int],
    tolerance: int | None = None,
    rng: random.Random | None = None,
) -> dict[Vertex, int]:
    """Move vertices from the heavy side until imbalance <= tolerance (in place).

    Each step moves the vertex whose move hurts the cut least (max gain),
    among heavy-side vertices whose move does not *increase* the imbalance.
    Strict progress is enforced by locking moved vertices: equal-imbalance
    moves (a heavy vertex whose weight equals the whole excess) are allowed
    — they can be a necessary stepping stone on weighted graphs — but each
    vertex moves at most once, so the loop always terminates.

    Used to (a) repair SA incumbents that drifted unbalanced, and (b)
    restore exact balance after projecting a contracted bisection back to
    the original graph.  Returns the same dict for convenience.  Raises
    ``ValueError`` when the tolerance is unreachable this way (callers
    with a weight-aware refiner can fall back to refining unbalanced).
    """
    if tolerance is None:
        tolerance = default_tolerance(graph)
    w0, w1 = side_weights(graph, assignment)
    moved: set = set()
    while abs(w0 - w1) > tolerance:
        heavy = 0 if w0 > w1 else 1
        excess = abs(w0 - w1)
        best_v = None
        best_key = None
        for v in graph.vertices():
            if assignment[v] != heavy or v in moved:
                continue
            wv = graph.vertex_weight(v)
            new_imbalance = abs(excess - 2 * wv)
            if new_imbalance > excess:
                continue
            gain = 0
            for u, w in graph.neighbor_items(v):
                gain += w if assignment[u] != heavy else -w
            # Prefer moves that shrink the imbalance most; break ties by gain.
            key = (-new_imbalance, gain)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        if best_v is None:
            raise ValueError(
                f"cannot rebalance to tolerance {tolerance}: no movable vertex "
                f"(imbalance {abs(w0 - w1)})"
            )
        wv = graph.vertex_weight(best_v)
        assignment[best_v] = 1 - heavy
        moved.add(best_v)
        if heavy == 0:
            w0 -= wv
            w1 += wv
        else:
            w1 -= wv
            w0 += wv
    return assignment
