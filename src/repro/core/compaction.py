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
from functools import cached_property
from itertools import chain, compress
from operator import add

from ..graphs.csr import CSRGraph, cached_csr, csr_view
from ..graphs.graph import Graph
from ..obs import counter, gauge, span
from ..partition.bisection import Bisection
from .matching import Matching

__all__ = ["Compaction", "compact"]

Vertex = Hashable


@dataclass(frozen=True)
class Compaction:
    """A contracted graph plus the mapping back to the original.

    ``coarse`` is G'; ``super_of[i]`` is the supervertex of
    ``fine_labels[i]``, the original vertex with CSR id ``i``; ``pairs``
    is the contracted matching, pair ``s`` being supervertex ``s``.
    ``members`` and ``parent`` are the same table keyed by label.
    """

    original: Graph
    coarse: Graph
    fine_labels: list[Vertex]
    super_of: list[int]
    pairs: tuple[tuple[Vertex, Vertex], ...]  # the matching, as given

    @cached_property
    def members(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """``members[s]``: the original vertices coalesced into ``s`` (one or two)."""
        members: dict[Vertex, tuple[Vertex, ...]] = dict(enumerate(map(tuple, self.pairs)))
        first_single = len(self.pairs)
        for v, s in zip(self.fine_labels, self.super_of):
            if s >= first_single:
                members[s] = (v,)
        return members

    @cached_property
    def parent(self) -> dict[Vertex, Vertex]:
        """``parent[v]``: the supervertex containing original vertex ``v``."""
        return {v: s for s, group in self.members.items() for v in group}

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
        if dict(zip(self.fine_labels, self.super_of)) != self.parent:
            raise AssertionError("super_of disagrees with the matching")
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
        coarse_sides = coarse_bisection.sides_over(csr_view(self.coarse))
        sides = list(map(coarse_sides.__getitem__, self.super_of))
        fine = cached_csr(self.original)
        if fine is not None and fine.labels is self.fine_labels:
            return Bisection.from_id_sides(self.original, sides)
        # The original changed since it was contracted: go by label.
        return Bisection(self.original, dict(zip(self.fine_labels, sides)))


def compact(graph: Graph, matching: Matching) -> Compaction:
    """Contract the edges of ``matching`` in ``graph`` (paper step 2).

    Supervertex labels are fresh integers ``0 .. |V'|-1`` (matched pairs
    first, in matching order, then unmatched vertices in graph order), so
    the coarse graph is independent of the original's label type.  G'
    comes with its CSR view already cached, so no bisector recompiles it.

    Raises ``ValueError`` if ``matching`` is not a valid matching of
    ``graph``.
    """
    with span("compaction.compact", vertices=graph.num_vertices):
        compaction = _compact(graph, matching)
    counter("compaction_contractions_total").inc()
    counter("compaction_matched_pairs_total").inc(len(matching))
    gauge("compaction_ratio").set(compaction.compaction_ratio)
    return compaction


def _compact(graph: Graph, matching: Matching) -> Compaction:
    """Contract over the CSR's integer ids.

    ``super_of`` is the id-indexed parent table.  The matching is checked
    first: both ends have ids, no id twice, and each pair is an edge of
    ``graph``'s CSR rows.  Coarse rows are filled walking the fine CSR
    slots with ``head < tail`` in slot order — the order of
    ``graph.edges()`` — and a merged edge keeps the position of its first
    occurrence, so every ``coarse.adjacency(s)`` lists its neighbours
    exactly as an ``add_edge(..., merge=True)`` loop over ``graph.edges()``
    would (FM buckets and SA's CSR sampling on G' read that order).  The
    rows are per-vertex neighbour and weight lists; they become the
    mirrors of G''s CSR view, and G' is backed by that view alone
    (:meth:`Graph.from_csr`), so no dict row is built unless read.
    """
    csr = csr_view(graph)
    n = csr.num_vertices
    pairs = tuple(matching)
    num_pairs = len(pairs)
    firsts, seconds = zip(*pairs) if pairs else ((), ())
    try:
        first_ids = list(map(csr.index_of.__getitem__, firsts))
        second_ids = list(map(csr.index_of.__getitem__, seconds))
    except KeyError:
        raise ValueError("not a valid matching of this graph") from None
    if len(set(first_ids).union(second_ids)) != 2 * num_pairs or not all(
        map(list.__contains__, map(csr.neighbor_lists().__getitem__, first_ids), second_ids)
    ):
        raise ValueError("not a valid matching of this graph")
    super_of = [-1] * n
    for s, (a, b) in enumerate(zip(first_ids, second_ids)):
        super_of[a] = super_of[b] = s
    singles = list(compress(range(n), map((-1).__eq__, super_of)))
    num_coarse = num_pairs + len(singles)
    for s, i in enumerate(singles, num_pairs):
        super_of[i] = s

    weight_of = csr.vertex_weight_list().__getitem__
    coarse_weight = list(map(add, map(weight_of, first_ids), map(weight_of, second_ids)))
    coarse_weight += map(weight_of, singles)
    neighbors: list[list[int]] = [[] for _ in range(num_coarse)]
    row_weights: list[list[int]] = [[] for _ in range(num_coarse)]
    # position[lo * num_coarse + hi]: where hi sits in lo's row, times
    # num_coarse, plus where lo sits in hi's row (lo < hi).  One flat dict
    # of ints for the whole contraction keeps a merge O(1) however long
    # the rows grow, and the collector does not track it.
    position: dict[int, int] = {}
    heads, tails, weights = csr.head_tail_lists()
    super_get = super_of.__getitem__
    contracted = 0
    for sh, st, w in compress(
        zip(map(super_get, heads), map(super_get, tails), weights), csr.forward_mask()
    ):
        if sh == st:
            contracted += w  # the matching edge vanishes inside its supervertex
            continue
        if st < sh:
            sh, st = st, sh
        key = sh * num_coarse + st
        at = position.get(key)
        if at is None:
            row, other = neighbors[sh], neighbors[st]
            position[key] = len(row) * num_coarse + len(other)
            row.append(st)
            row_weights[sh].append(w)
            other.append(sh)
            row_weights[st].append(w)
        else:  # a parallel edge: add its weight where the first one sits
            at_sh, at_st = divmod(at, num_coarse)
            row_weights[sh][at_sh] += w
            row_weights[st][at_st] += w

    # G''s labels are its ids 0 .. |V'|-1, so its ranks are the identity.
    ids = range(num_coarse)
    weights = list(chain.from_iterable(row_weights))
    weighted_degrees = list(map(sum, row_weights))
    view = CSRGraph._from_slot_lists(
        list(ids),
        list(map(len, neighbors)),
        list(chain.from_iterable(neighbors)),
        weights,
        coarse_weight,
        num_edges=len(weights) // 2,
        total_edge_weight=graph.total_edge_weight - contracted,
        max_weighted_degree=max(weighted_degrees, default=0),
        unit_edge_weights=weights.count(1) == len(weights),
        ranks=(list(ids), list(ids)),
        mirrors={
            "neighbors": neighbors,
            "weights": row_weights,
            "weighted_degrees": weighted_degrees,
            "vertex_weights": coarse_weight,
        },
    )
    return Compaction(
        original=graph,
        coarse=Graph.from_csr(view),
        fine_labels=csr.labels,
        super_of=super_of,
        pairs=pairs,
    )
