"""Netlist (hypergraph) substrate: the paper's VLSI domain, natively.

Provides the hypergraph object, the real Fiduccia-Mattheyses net-cut
bisector, graph abstractions (clique/star expansion), netlist generators,
and hMETIS I/O.
"""

from .compaction import (
    HypergraphCompaction,
    compact_hypergraph,
    compacted_hypergraph_fm,
    multilevel_hypergraph_fm,
    random_cell_matching,
)
from .expansion import clique_expansion, star_expansion
from .fm import HyperFMResult, hypergraph_fm, random_hypergraph_bisection
from .generators import from_graph, grid_netlist, random_netlist
from .hypergraph import Hypergraph, HypergraphBisection, net_cut_weight
from .io import (
    hypergraph_from_string,
    hypergraph_to_string,
    read_hmetis,
    write_hmetis,
)

__all__ = [
    "Hypergraph",
    "HypergraphBisection",
    "net_cut_weight",
    "hypergraph_fm",
    "HyperFMResult",
    "random_hypergraph_bisection",
    "clique_expansion",
    "star_expansion",
    "from_graph",
    "random_netlist",
    "grid_netlist",
    "read_hmetis",
    "write_hmetis",
    "hypergraph_to_string",
    "hypergraph_from_string",
    "random_cell_matching",
    "compact_hypergraph",
    "HypergraphCompaction",
    "compacted_hypergraph_fm",
    "multilevel_hypergraph_fm",
]
