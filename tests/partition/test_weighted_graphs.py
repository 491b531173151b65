"""Weighted-graph edge cases across all partitioners.

Contraction produces vertex weights 2, 4, 8... and merged edge weights;
these tests stress every algorithm on adversarial weight patterns beyond
what the pipeline tests exercise: heavy single vertices, highly skewed
edge weights, and deep-coarsening weight ranges.
"""

from __future__ import annotations

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.generators import gnp
from repro.graphs.graph import Graph
from repro.partition import (
    Bisection,
    cut_weight,
    fiduccia_mattheyses,
    greedy_improvement,
    kernighan_lin,
    minimum_achievable_imbalance,
    simulated_annealing,
)
from repro.partition.annealing import AnnealingSchedule

FAST_SA = AnnealingSchedule(size_factor=2, cooling_ratio=0.85, max_temperatures=40)


def deep_coarse_graph(seed: int, levels: int = 3) -> Graph:
    """A graph with vertex weights up to 2^levels from repeated contraction."""
    g = gnp(64, 0.12, rng=seed)
    for level in range(levels):
        g = compact(g, random_maximal_matching(g, rng=seed + level)).coarse
    return g


class TestHeavyEdgeWeights:
    def test_kl_respects_heavy_edges(self):
        # Two heavy dumbbells joined by light edges: the heavy pairs must
        # never be separated by an improving algorithm.
        g = Graph.from_edges(
            [(0, 1, 100), (2, 3, 100), (0, 2, 1), (1, 3, 1), (0, 3, 1), (1, 2, 1)]
        )
        result = kernighan_lin(g, rng=1)
        b = result.bisection
        assert b.side_of(0) == b.side_of(1)
        assert b.side_of(2) == b.side_of(3)
        assert result.cut == 4

    def test_fm_respects_heavy_edges(self):
        g = Graph.from_edges(
            [(0, 1, 50), (2, 3, 50), (0, 2, 1), (1, 3, 1)]
        )
        best = min(fiduccia_mattheyses(g, rng=s).cut for s in range(3))
        assert best == 2

    def test_sa_weighted_cut_accounting(self):
        g = Graph.from_edges([(0, 1, 7), (1, 2, 3), (2, 3, 7), (3, 0, 3)])
        result = simulated_annealing(g, rng=2, schedule=FAST_SA)
        assert result.cut == cut_weight(g, result.bisection.assignment())
        assert result.cut == 6  # cut the two weight-3 edges

    def test_greedy_weighted(self):
        g = Graph.from_edges([(0, 1, 10), (1, 2, 1), (2, 3, 10), (3, 0, 1)])
        result = greedy_improvement(g, rng=3)
        assert result.cut <= 20


class TestDeepCoarseningWeights:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fm_handles_weight_range(self, seed):
        g = deep_coarse_graph(seed)
        assert not g.is_uniform_vertex_weight()
        result = fiduccia_mattheyses(g, rng=seed)
        assert result.bisection.is_balanced()
        assert result.cut == cut_weight(g, result.bisection.assignment())

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sa_handles_weight_range(self, seed):
        g = deep_coarse_graph(seed)
        result = simulated_annealing(g, rng=seed, schedule=FAST_SA)
        assert result.bisection.is_balanced()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kl_weight_classes(self, seed):
        # KL only swaps equal weights: the result keeps the initial
        # weighted balance exactly.
        g = deep_coarse_graph(seed)
        from repro.partition.random_init import random_bisection

        init = random_bisection(g, rng=seed)
        result = kernighan_lin(g, init=init)
        assert result.bisection.imbalance == init.imbalance


class TestExtremeVertexWeights:
    def test_one_giant_vertex(self):
        # One vertex outweighs everything: the only near-balanced split
        # isolates it.
        g = Graph()
        g.add_vertex(0, 100)
        for v in range(1, 6):
            g.add_vertex(v, 1)
            g.add_edge(0, v)
        result = fiduccia_mattheyses(g, rng=1)
        b = result.bisection
        assert b.side(b.side_of(0)) == frozenset([0])

    def test_minimum_imbalance_math(self):
        assert minimum_achievable_imbalance([100, 1, 1, 1, 1, 1]) == 95
        assert minimum_achievable_imbalance([4, 4, 4]) == 4
        assert minimum_achievable_imbalance([4, 4, 2, 2]) == 0

    def test_bisection_weights_on_skewed_graph(self):
        g = Graph()
        g.add_vertex("giant", 10)
        g.add_vertex("small", 1)
        g.add_edge("giant", "small")
        b = Bisection.from_sides(g, ["giant"])
        assert b.weights == (10, 1)
        assert b.imbalance == 9
        assert b.is_balanced()  # 9 IS the minimum achievable imbalance
