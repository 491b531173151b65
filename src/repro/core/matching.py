"""Matchings for compaction.

The paper's compaction step 1 is: "Form a maximum random matching M of the
graph G."  In [BCLS87] and all follow-up work this means a random
*maximal* matching — scan the edges in random order, keeping every edge
whose endpoints are both still free (a maximum-cardinality matching would
need Blossom and buys nothing for this use).  A maximal matching is at
least half the size of a maximum one, and on random sparse graphs it
covers most vertices, which is what drives the average-degree increase
compaction relies on.

:func:`heavy_edge_matching` is the weight-greedy variant used by modern
multilevel partitioners; it exists here for the matching-policy ablation
bench (``bench_ablation_matching``).
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from itertools import compress

from ..graphs.csr import csr_view
from ..graphs.graph import Graph
from ..rng import resolve_rng

__all__ = ["random_maximal_matching", "heavy_edge_matching", "is_matching", "is_maximal_matching"]

Vertex = Hashable
Matching = list[tuple[Vertex, Vertex]]


def random_maximal_matching(
    graph: Graph, rng: random.Random | int | None = None
) -> Matching:
    """A uniformly-random-greedy maximal matching of ``graph``.

    Edges are visited in a uniformly random order and kept when both
    endpoints are free.  O(|E|).

    The edge list is read off the graph's CSR view: its forward slots
    (``head < tail``) are exactly ``graph.edges()`` in order.  Their ids
    are shuffled — a list as long as the edge list, so the draws, and the
    matching, are the same as a shuffle of the edges themselves — at
    integer-id speed and with no tuple per edge.
    """
    rng = resolve_rng(rng)
    csr = csr_view(graph)
    heads, tails, _ = csr.head_tail_lists()
    slots = list(compress(range(len(heads)), csr.forward_mask()))
    rng.shuffle(slots)
    labels = csr.labels
    matched = bytearray(csr.num_vertices)
    matching: Matching = []
    for h, t in zip(map(heads.__getitem__, slots), map(tails.__getitem__, slots)):
        if not matched[h] and not matched[t]:
            matched[h] = matched[t] = 1
            matching.append((labels[h], labels[t]))
    return matching


def heavy_edge_matching(graph: Graph, rng: random.Random | int | None = None) -> Matching:
    """Maximal matching preferring heavy edges (randomized vertex visit order).

    Visits vertices in random order; each free vertex matches its free
    neighbor with the heaviest connecting edge, the first in its row on a
    tie.  On unweighted graphs this degenerates to a random greedy
    matching with a different bias than :func:`random_maximal_matching` —
    the ablation bench compares the two.

    The walk runs over the CSR view's ids and rows, which follow the
    vertex and adjacency order, and maps the pairs to labels at the end.
    """
    rng = resolve_rng(rng)
    csr = csr_view(graph)
    order = list(range(csr.num_vertices))
    rng.shuffle(order)  # as long as the vertex list: the same permutation of it
    nbrs, wts = csr.neighbor_lists(), csr.weight_lists()
    matched = bytearray(csr.num_vertices)
    pairs: list[tuple[int, int]] = []
    for v in order:
        if matched[v]:
            continue
        best_u = -1
        best_w = 0
        for u, w in zip(nbrs[v], wts[v]):
            if not matched[u] and w > best_w:
                best_u, best_w = u, w
        if best_u >= 0:
            pairs.append((v, best_u))
            matched[v] = matched[best_u] = 1
    labels = csr.labels
    return [(labels[v], labels[u]) for v, u in pairs]


def is_matching(graph: Graph, matching: Matching) -> bool:
    """True iff ``matching`` is a set of existing, vertex-disjoint edges."""
    seen: set[Vertex] = set()
    for u, v in matching:
        if not graph.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_maximal_matching(graph: Graph, matching: Matching) -> bool:
    """True iff ``matching`` is a matching no edge can be added to."""
    if not is_matching(graph, matching):
        return False
    matched = {v for pair in matching for v in pair}
    return all(
        u in matched or v in matched for u, v, _ in graph.edges()
    )
