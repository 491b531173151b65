"""Graph compaction: matching contraction and bisection projection.

The paper's compaction steps 2 and 4 (Section V):

    2. Form a new graph G' by contracting the edges in the random matching
       M.  That is coalesce the two endpoints of an edge in the random
       matching M to form a new vertex.  All vertices incident to the two
       original vertices are now incident to the new vertex just formed.
    ...
    4. Uncompact the edges to obtain the original graph and create an
       initial bisection (A, B) from (A', B').

Bookkeeping that the contraction must get right for the projected cut to
equal the coarse cut:

* parallel edges created by coalescing merge into a single edge whose
  weight is the *sum* (so the weighted cut of G' equals the cut of G for
  any partition that keeps matched pairs together);
* the edge inside a contracted pair disappears (it can never be cut while
  the pair moves as a unit);
* a supervertex carries vertex weight = sum of its members' weights, so
  weighted balance on G' is exactly vertex balance on G.

:class:`Compaction` retains the supervertex membership table so a coarse
bisection can be projected back with :meth:`Compaction.project`.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from itertools import compress
from operator import lt

from ..graphs.csr import csr_view
from ..graphs.graph import Graph
from ..obs import counter, gauge, span
from ..partition.bisection import Bisection
from .matching import Matching, is_matching

__all__ = ["Compaction", "compact"]

Vertex = Hashable


@dataclass(frozen=True)
class Compaction:
    """A contracted graph plus the mapping back to the original.

    ``coarse`` is G'; ``members[s]`` lists the original vertices coalesced
    into supervertex ``s`` (one or two of them); ``parent[v]`` is the
    supervertex containing original vertex ``v``.
    """

    original: Graph
    coarse: Graph
    members: dict[Vertex, tuple[Vertex, ...]]
    parent: dict[Vertex, Vertex]

    @property
    def compaction_ratio(self) -> float:
        """``|V'| / |V|`` — 0.5 for a perfect matching, 1.0 for an empty one.

        The empty graph compacts to itself, so its ratio is defined as 1.0
        (rather than 0/0).
        """
        if self.original.num_vertices == 0:
            return 1.0
        return self.coarse.num_vertices / self.original.num_vertices

    def validate(self) -> None:
        """Check the uncompaction bookkeeping; raises ``AssertionError`` on drift.

        Verifies that the supervertex membership table is a partition of
        the original vertex set (no vertex lost or duplicated through an
        uncompaction round-trip), that ``parent`` is its inverse, and that
        vertex and edge weight totals are conserved by the contraction.
        """
        seen: set[Vertex] = set()
        for super_v, group in self.members.items():
            if super_v not in self.coarse:
                raise AssertionError(f"supervertex {super_v!r} not in coarse graph")
            if not group:
                raise AssertionError(f"supervertex {super_v!r} has no members")
            for v in group:
                if v in seen:
                    raise AssertionError(f"vertex {v!r} duplicated across supervertices")
                seen.add(v)
                if v not in self.original:
                    raise AssertionError(f"member {v!r} not in original graph")
                if self.parent.get(v) != super_v:
                    raise AssertionError(
                        f"parent[{v!r}] = {self.parent.get(v)!r} != {super_v!r}"
                    )
            member_weight = sum(self.original.vertex_weight(v) for v in group)
            if self.coarse.vertex_weight(super_v) != member_weight:
                raise AssertionError(
                    f"supervertex {super_v!r} weight {self.coarse.vertex_weight(super_v)}"
                    f" != member total {member_weight}"
                )
        missing = set(self.original.vertices()) - seen
        if missing:
            raise AssertionError(f"{len(missing)} vertices lost through compaction")
        internal = sum(
            w for u, v, w in self.original.edges() if self.parent[u] == self.parent[v]
        )
        if self.coarse.total_edge_weight != self.original.total_edge_weight - internal:
            raise AssertionError(
                f"coarse edge weight {self.coarse.total_edge_weight} != original "
                f"{self.original.total_edge_weight} minus contracted {internal}"
            )

    def project(self, coarse_bisection: Bisection) -> Bisection:
        """Uncompact: map a bisection of G' to the induced bisection of G.

        The induced cut equals the coarse weighted cut, and the vertex
        balance of the result equals the weighted balance of the coarse
        bisection (both facts are property-tested).
        """
        if coarse_bisection.graph is not self.coarse and coarse_bisection.graph != self.coarse:
            raise ValueError("bisection does not belong to this compaction's coarse graph")
        # One dict-comprehension pass over the parent map (C-level loop)
        # instead of nested Python loops over the member groups.
        coarse_sides = coarse_bisection.assignment()
        coarse_get = coarse_sides.__getitem__
        assignment = {v: coarse_get(p) for v, p in self.parent.items()}
        return Bisection(self.original, assignment)


def compact(graph: Graph, matching: Matching) -> Compaction:
    """Contract the edges of ``matching`` in ``graph`` (paper step 2).

    Supervertex labels are fresh integers ``0 .. |V'|-1`` (matched pairs
    first, in matching order, then unmatched vertices in graph order), so
    the coarse graph is independent of the original's label type.

    Raises ``ValueError`` if ``matching`` is not a valid matching of
    ``graph``.
    """
    if not is_matching(graph, matching):
        raise ValueError("not a valid matching of this graph")

    with span("compaction.compact", vertices=graph.num_vertices):
        compaction = _compact(graph, matching)
    counter("compaction_contractions_total").inc()
    counter("compaction_matched_pairs_total").inc(len(matching))
    gauge("compaction_ratio").set(compaction.compaction_ratio)
    return compaction


def _compact(graph: Graph, matching: Matching) -> Compaction:
    """Contract over the CSR's integer ids.

    ``super_of`` is the id-indexed parent table.  Coarse rows are filled
    walking the fine CSR slots with ``head < tail`` in slot order — the
    order of ``graph.edges()`` — and a merged edge keeps the position of
    its first occurrence, so every ``coarse.adjacency(s)`` lists its
    neighbours exactly as an ``add_edge(..., merge=True)`` loop over
    ``graph.edges()`` would (FM buckets and SA's CSR sampling on G' read
    that order).
    """
    csr = csr_view(graph)
    labels = csr.labels
    index_of = csr.index_of
    parent: dict[Vertex, Vertex] = {}
    members: dict[Vertex, tuple[Vertex, ...]] = {}
    super_of = [-1] * csr.num_vertices
    for s, (u, v) in enumerate(matching):
        parent[u] = parent[v] = s
        members[s] = (u, v)
        super_of[index_of[u]] = super_of[index_of[v]] = s
    num_coarse = len(matching)
    for i, s in enumerate(super_of):
        if s < 0:
            v = labels[i]
            parent[v] = super_of[i] = num_coarse
            members[num_coarse] = (v,)
            num_coarse += 1

    coarse_weight = [0] * num_coarse
    for s, w in zip(super_of, csr.vertex_weight_list()):
        coarse_weight[s] += w
    rows: list[dict[int, int]] = [{} for _ in range(num_coarse)]
    heads, tails, weights = csr.head_tail_lists()
    super_get = super_of.__getitem__
    contracted = 0
    for sh, st, w in compress(
        zip(map(super_get, heads), map(super_get, tails), weights),
        map(lt, heads, tails),
    ):
        if sh == st:
            contracted += w  # the matching edge vanishes inside its supervertex
            continue
        row = rows[sh]
        if st in row:
            row[st] = rows[st][sh] = row[st] + w
        else:
            row[st] = w
            rows[st][sh] = w

    # Assemble G' directly; its labels are the fresh ints 0 .. |V'|-1.
    coarse = Graph()
    coarse._adj = dict(enumerate(rows))
    coarse._vertex_weight = dict(enumerate(coarse_weight))
    coarse._num_edges = sum(map(len, rows)) // 2
    coarse._total_edge_weight = graph.total_edge_weight - contracted
    return Compaction(original=graph, coarse=coarse, members=members, parent=parent)
