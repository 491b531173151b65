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
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping

from ..graphs.csr import CSRGraph, cached_csr, csr_cut_weight, csr_side_weights, csr_view
from ..graphs.graph import Graph

__all__ = [
    "Bisection",
    "cut_weight",
    "side_weights",
    "minimum_achievable_imbalance",
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


def _subset_sums(weights: Iterable[int]) -> tuple[int, int]:
    """Bitset of every reachable subset sum of ``weights`` (bit ``s`` set
    when some subset sums to ``s``), and the total weight.

    Equal weights shift together.  ``c`` copies of ``w`` shifted in chunks
    of 1, 2, 4, ... copies and then the remainder reach exactly the sums
    ``0, w, ..., c*w`` — the bitset one shift per copy would give — in
    ``O(log c)`` big-integer shifts instead of ``c``.
    """
    reachable = 1
    total = 0
    for w, count in Counter(weights).items():
        total += w * count
        chunk = 1
        while count:
            take = min(chunk, count)
            reachable |= reachable << (w * take)
            count -= take
            chunk *= 2
    return reachable, total


def minimum_achievable_imbalance(weights: Iterable[int]) -> int:
    """Smallest possible ``|w(A) - w(B)|`` over all 2-partitions of ``weights``.

    Computed with a bitset subset-sum sweep (:func:`_subset_sums`), which is
    fast even for thousands of vertices.  For unit weights this is
    ``total % 2``; for contracted graphs (weights in {1, 2}) it is 0, 1, or 2.
    """
    reachable, total = _subset_sums(weights)
    best = total
    half = total // 2
    # Scan sums downward from floor(total/2); the first reachable sum s gives
    # the minimum |total - 2s| on this side of half (and by symmetry overall).
    for s in range(half, -1, -1):
        if (reachable >> s) & 1:
            best = total - 2 * s
            break
    return best


def default_tolerance(graph: Graph) -> int:
    """Default balance tolerance for ``graph``.

    For plain graphs: 0 when ``|V|`` is even, 1 when odd (the paper's
    graphs all have an even vertex count, so this is 0 there).  For
    weighted (contracted) graphs: the exact minimum achievable imbalance.
    """
    csr = cached_csr(graph)
    if csr is None:
        uniform = graph.is_uniform_vertex_weight()
        weights = map(graph.vertex_weight, graph.vertices())
    else:  # read off the compiled view, as cut_weight does
        uniform = csr.unit_vertex_weights
        weights = csr.vertex_weight_list()
    if uniform:
        return graph.num_vertices % 2
    return minimum_achievable_imbalance(weights)


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

    # ``_sides`` is ``(csr, id-indexed side list)`` when the bisection was
    # built from one (:meth:`from_id_sides`), else ``None``; the vertex ->
    # side map ``_assignment`` is then laid out from it on first use.
    __slots__ = ("_graph", "_assignment", "_cut", "_weights", "_sides")

    def __init__(self, graph: Graph, assignment: Mapping[Vertex, int]):
        # One walk over the vertices copies; only the error paths walk again.
        try:
            copy = {v: assignment[v] for v in graph.vertices()}
        except KeyError:
            missing = [v for v in graph.vertices() if v not in assignment]
            raise ValueError(
                f"assignment missing {len(missing)} vertices, e.g. {missing[0]!r}"
            ) from None
        _check_sides(list(copy.values()), copy)
        self._graph = graph
        self._assignment = copy
        self._cut: int | None = None
        self._weights: tuple[int, int] | None = None
        self._sides: tuple[CSRGraph, list[int]] | None = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_id_sides(cls, graph: Graph, sides: list[int]) -> "Bisection":
        """Build from ``sides[i]``, the side of CSR id ``i`` of ``graph``.

        ``sides`` is indexed by the ids of ``csr_view(graph)`` and is kept,
        not copied: the caller hands it over.  It is checked as a mapping
        is — one side per vertex, each 0 or 1.  The bisection counts its
        cut and weights from the list, :meth:`sides_over` copies it, and
        the label map is built only when asked for, so the partition
        drivers skip the label lookups both ways.
        """
        csr = csr_view(graph)
        if len(sides) != csr.num_vertices:
            raise ValueError(
                f"side list has {len(sides)} entries for {csr.num_vertices} vertices"
            )
        _check_sides(sides, csr.labels)
        self = cls.__new__(cls)
        self._graph = graph
        self._assignment = None
        self._cut = None
        self._weights = None
        self._sides = (csr, sides)
        return self

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

    @property
    def _map(self) -> dict[Vertex, int]:
        if self._assignment is None:
            csr, sides = self._sides
            self._assignment = csr.assignment_dict(sides)
        return self._assignment

    def side_of(self, v: Vertex) -> int:
        return self._map[v]

    def side(self, which: int) -> frozenset:
        """The set of vertices on side ``which`` (0 or 1)."""
        if which not in (0, 1):
            raise ValueError("side must be 0 or 1")
        return frozenset(v for v, s in self._map.items() if s == which)

    def assignment(self) -> dict[Vertex, int]:
        """A mutable copy of the vertex -> side map."""
        return dict(self._map)

    def sides_over(self, csr: CSRGraph) -> list[int]:
        """A new list of the side of each id of ``csr``, a view of this graph."""
        held = self._sides
        if held is not None and held[0] is csr:
            return held[1].copy()
        return csr.sides_list(self._map)

    def _current_sides(self) -> tuple[CSRGraph, list[int]] | None:
        """The held side list, while its CSR view is still the graph's."""
        held = self._sides
        if held is not None and cached_csr(self._graph) is held[0]:
            return held
        return None

    @property
    def cut(self) -> int:
        """Total weight of cut edges (cached)."""
        if self._cut is None:
            held = self._current_sides()
            self._cut = (
                csr_cut_weight(*held) if held else cut_weight(self._graph, self._map)
            )
        return self._cut

    @property
    def weights(self) -> tuple[int, int]:
        """Vertex-weight totals ``(w(side 0), w(side 1))`` (cached)."""
        if self._weights is None:
            held = self._current_sides()
            self._weights = (
                csr_side_weights(*held)
                if held
                else side_weights(self._graph, self._map)
            )
        return self._weights

    @property
    def sizes(self) -> tuple[int, int]:
        """Vertex counts per side."""
        n1 = sum(self._map.values())
        return len(self._map) - n1, n1

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
        mine, theirs = self._map, other._map
        same = all(mine[v] == theirs[v] for v in mine)
        if same:
            return True
        return all(mine[v] != theirs[v] for v in mine)

    def __repr__(self) -> str:
        n0, n1 = self.sizes
        return f"Bisection(cut={self.cut}, sides=({n0}, {n1}), imbalance={self.imbalance})"


def _check_sides(sides: list[int], labels: Iterable[Vertex]) -> None:
    """Raise ``ValueError`` unless every side is 0 or 1; ``labels`` name them in order."""
    if sides.count(0) + sides.count(1) != len(sides):
        bad = next(v for v, side in zip(labels, sides) if side not in (0, 1))
        raise ValueError(f"assignment values must be 0 or 1 (vertex {bad!r})")


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
    # Over the CSR ids: id order is vertex order and each row is the
    # vertex's adjacency in order, so the scan picks what a walk over
    # labels would.
    csr = csr_view(graph)
    sides = csr.sides_list(assignment)
    weight = csr.vertex_weight_list()
    nbrs, wts = csr.neighbor_lists(), csr.weight_lists()
    w0, w1 = csr_side_weights(csr, sides)
    moved = bytearray(csr.num_vertices)
    while abs(w0 - w1) > tolerance:
        heavy = 0 if w0 > w1 else 1
        excess = abs(w0 - w1)
        best_v = None
        best_key = None
        for v in range(csr.num_vertices):
            if sides[v] != heavy or moved[v]:
                continue
            new_imbalance = abs(excess - 2 * weight[v])
            if new_imbalance > excess:
                continue
            gain = 0
            for u, w in zip(nbrs[v], wts[v]):
                gain += w if sides[u] != heavy else -w
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
        wv = weight[best_v]
        sides[best_v] = 1 - heavy
        assignment[csr.labels[best_v]] = 1 - heavy
        moved[best_v] = 1
        if heavy == 0:
            w0 -= wv
            w1 += wv
        else:
            w1 -= wv
            w0 += wv
    return assignment
