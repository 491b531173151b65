"""Compaction for netlists: the paper's heuristic on its own domain.

The paper develops compaction for graphs; its natural home is the VLSI
netlist the paper's introduction motivates.  This module ports all five
steps to hypergraphs:

1. random maximal matching of *cells* (two cells match if they share a
   net — the hypergraph notion of adjacency);
2. contraction: matched cells coalesce; each net maps its pins through
   the parent map, nets reduced to one distinct pin vanish from the cut
   objective, and nets with identical pin sets merge with summed weight;
3. bisect the contracted netlist (hypergraph FM);
4. project the coarse bisection back (net cut is preserved exactly);
5. refine on the original netlist from that start.

Both pipelines run through the same level loop as CKL
(:mod:`repro.core.pipeline`), with the cell matching and netlist
contraction below in place of the graph ones.

Recursive application (:func:`multilevel_hypergraph_fm`) is precisely the
hMETIS recipe — the historical through-line from this 1989 paper to
modern hypergraph partitioners.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass

from ..core.pipeline import (
    CompactedResult,
    MultilevelResult,
    _compacted_result,
    _level_loop,
    _multilevel_result,
)
from ..rng import resolve_rng
from .fm import _default_tolerance, hypergraph_fm
from .hypergraph import Hypergraph, HypergraphBisection

__all__ = [
    "random_cell_matching",
    "compact_hypergraph",
    "HypergraphCompaction",
    "compacted_hypergraph_fm",
    "multilevel_hypergraph_fm",
]

Vertex = Hashable


def random_cell_matching(
    hypergraph: Hypergraph, rng: random.Random | int | None = None
) -> list[tuple[Vertex, Vertex]]:
    """Random maximal matching of cells under shares-a-net adjacency.

    Visits cells in random order; each free cell matches a random free
    cell among those sharing one of its nets.  O(pins) expected.
    """
    rng = resolve_rng(rng)
    cells = list(hypergraph.vertices())
    rng.shuffle(cells)
    matched: set[Vertex] = set()
    matching: list[tuple[Vertex, Vertex]] = []
    for v in cells:
        if v in matched:
            continue
        nets = list(hypergraph.nets_of(v))
        rng.shuffle(nets)
        partner = None
        for net in nets:
            candidates = [p for p in hypergraph.pins(net) if p != v and p not in matched]
            if candidates:
                partner = candidates[rng.randrange(len(candidates))]
                break
        if partner is not None:
            matching.append((v, partner))
            matched.add(v)
            matched.add(partner)
    return matching


@dataclass(frozen=True)
class HypergraphCompaction:
    """A contracted netlist plus the mapping back to the original."""

    original: Hypergraph
    coarse: Hypergraph
    members: dict[Vertex, tuple[Vertex, ...]]
    parent: dict[Vertex, Vertex]

    @property
    def compaction_ratio(self) -> float:
        return self.coarse.num_vertices / self.original.num_vertices

    def project(self, coarse_bisection: HypergraphBisection) -> HypergraphBisection:
        """Uncompact: the induced bisection of the original netlist.

        The induced net cut equals the coarse net cut (property-tested):
        a net internal to a supervertex set stays internal, and merged
        identical nets carried summed weights.
        """
        if coarse_bisection.hypergraph is not self.coarse:
            raise ValueError("bisection does not belong to this compaction's coarse netlist")
        assignment: dict[Vertex, int] = {}
        for super_v, group in self.members.items():
            side = coarse_bisection.side_of(super_v)
            for v in group:
                assignment[v] = side
        return HypergraphBisection(self.original, assignment)


def compact_hypergraph(
    hypergraph: Hypergraph, matching: list[tuple[Vertex, Vertex]]
) -> HypergraphCompaction:
    """Contract a cell matching (paper step 2, hypergraph edition).

    Raises ``ValueError`` if the matching repeats a cell or names one not
    in the netlist.
    """
    seen: set[Vertex] = set()
    for u, v in matching:
        if u not in hypergraph or v not in hypergraph:
            raise ValueError(f"matching names unknown cell in pair ({u!r}, {v!r})")
        if u in seen or v in seen or u == v:
            raise ValueError(f"not a matching: cell repeated in pair ({u!r}, {v!r})")
        seen.add(u)
        seen.add(v)

    parent: dict[Vertex, Vertex] = {}
    members: dict[Vertex, tuple[Vertex, ...]] = {}
    next_label = 0
    for u, v in matching:
        parent[u] = parent[v] = next_label
        members[next_label] = (u, v)
        next_label += 1
    for v in hypergraph.vertices():
        if v not in parent:
            parent[v] = next_label
            members[next_label] = (v,)
            next_label += 1

    coarse = Hypergraph()
    for super_v, group in members.items():
        coarse.add_vertex(
            super_v, sum(hypergraph.vertex_weight(v) for v in group)
        )
    # Merge nets with identical coarse pin sets (weights sum); drop nets
    # that collapse to a single supervertex — they can never be cut.
    merged: dict[tuple, int] = {}
    for net in hypergraph.nets():
        coarse_pins = sorted({parent[p] for p in hypergraph.pins(net)})
        if len(coarse_pins) < 2:
            continue
        key = tuple(coarse_pins)
        merged[key] = merged.get(key, 0) + hypergraph.net_weight(net)
    for pins, weight in merged.items():
        coarse.add_net(pins, weight)

    return HypergraphCompaction(
        original=hypergraph, coarse=coarse, members=members, parent=parent
    )


def _repair_balance(
    hypergraph: Hypergraph, bisection: HypergraphBisection, rng: random.Random
) -> HypergraphBisection:
    """Rebalance a projected bisection via FM's unbalanced-init repair."""
    if bisection.imbalance <= _default_tolerance(hypergraph):
        return bisection
    repaired = hypergraph_fm(hypergraph, init=bisection, rng=rng, max_passes=1)
    return repaired.bisection


def compacted_hypergraph_fm(
    hypergraph: Hypergraph, rng: random.Random | int | None = None
) -> CompactedResult:
    """Compacted hypergraph FM — CKL's netlist sibling."""
    cycle = _level_loop(
        hypergraph, rng, hypergraph_fm, _repair_balance,
        match=random_cell_matching, contract=compact_hypergraph,
    )
    return _compacted_result(cycle)


def multilevel_hypergraph_fm(
    hypergraph: Hypergraph,
    rng: random.Random | int | None = None,
    coarsest_size: int = 32,
    max_levels: int | None = None,
) -> MultilevelResult:
    """Recursive coalescing + FM refinement on a netlist."""
    cycle = _level_loop(
        hypergraph, rng, hypergraph_fm, _repair_balance,
        levels=max_levels, coarsest_size=coarsest_size,
        match=random_cell_matching, contract=compact_hypergraph,
    )
    return _multilevel_result(cycle)
