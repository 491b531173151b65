"""Recursive coalescing (multilevel) bisection — the compaction extension.

The paper applies *one* level of compaction.  The natural extension —
coalesce recursively until the graph is tiny, bisect that, then project
back level by level with refinement at each step — is the follow-up
direction ("A Recursive Coalescing Method for Bisecting Graphs") and the
blueprint of every modern multilevel partitioner (METIS, KaHIP).  It is
implemented here as the library's headline extension feature and measured
against single-level compaction by ``bench_ablation_multilevel``; the
level loop itself is shared with CKL in :mod:`repro.core.pipeline`.

Vertex weights grow geometrically with depth, so the per-level refiner
must handle heterogeneous weights; Fiduccia-Mattheyses
(:mod:`repro.partition.fm`) is the default for exactly that reason.
"""

from __future__ import annotations

import random

from ..graphs.graph import Graph
from ..partition.bisection import Bisection
from ..partition.fm import fiduccia_mattheyses
from .pipeline import Bisector, MultilevelResult, _level_loop, _multilevel_result, _rebalance

__all__ = ["multilevel_bisection", "MultilevelResult"]


def _rebalance_or_keep(graph: Graph, projected: Bisection, rng: random.Random) -> Bisection:
    try:
        return _rebalance(graph, projected, rng)
    except ValueError:
        # Single moves could not reach the tolerance (possible with heavy
        # supervertices); FM repairs unbalanced inits itself.
        return projected


def multilevel_bisection(
    graph: Graph,
    rng: random.Random | int | None = None,
    coarsest_size: int = 32,
    max_levels: int | None = None,
    refiner: Bisector = fiduccia_mattheyses,
) -> MultilevelResult:
    """Bisect ``graph`` by recursive coalescing.

    Coarsens with random maximal matchings until ``coarsest_size``
    vertices (or the matching stops making progress, or ``max_levels``),
    solves the coarsest graph with ``refiner`` from a random start, then
    projects upward, refining at every level.
    """
    cycle = _level_loop(
        graph, rng, refiner, _rebalance_or_keep, levels=max_levels, coarsest_size=coarsest_size
    )
    return _multilevel_result(cycle)
