"""Unit tests for Fiduccia-Mattheyses refinement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.generators import gnp, grid_graph
from repro.graphs.graph import Graph
from repro.partition.bisection import Bisection, cut_weight
from repro.partition.exact import exact_bisection_width
from repro.partition.fm import fiduccia_mattheyses


class TestFMBasics:
    def test_two_cliques(self, two_cliques):
        result = fiduccia_mattheyses(two_cliques, rng=1)
        assert result.cut == 1
        assert result.bisection.is_balanced()

    def test_counters(self, two_cliques):
        result = fiduccia_mattheyses(two_cliques, rng=2)
        assert result.initial_cut >= result.cut
        assert result.passes >= 1
        assert result.moves >= 0

    def test_respects_init(self, two_cliques):
        init = Bisection.from_sides(two_cliques, [0, 1, 2, 3])
        result = fiduccia_mattheyses(two_cliques, init=init)
        assert result.initial_cut == 1
        assert result.cut == 1

    def test_never_worse_than_start(self, small_grid):
        for seed in range(4):
            result = fiduccia_mattheyses(small_grid, rng=seed)
            assert result.cut <= result.initial_cut

    def test_max_passes(self, gbreg_sample):
        result = fiduccia_mattheyses(gbreg_sample.graph, rng=3, max_passes=1)
        assert result.passes == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            fiduccia_mattheyses(Graph())

    def test_foreign_init_rejected(self, two_cliques, triangle):
        with pytest.raises(ValueError):
            fiduccia_mattheyses(two_cliques, init=Bisection.from_sides(triangle, [0]))

    def test_default_is_even_split(self, small_grid):
        result = fiduccia_mattheyses(small_grid, rng=4)
        assert result.bisection.imbalance == 0

    def test_deterministic(self, gbreg_sample):
        a = fiduccia_mattheyses(gbreg_sample.graph, rng=4)
        b = fiduccia_mattheyses(gbreg_sample.graph, rng=4)
        assert a.cut == b.cut


class TestFMBalanceRepair:
    def test_repairs_unbalanced_init(self, small_grid):
        # 12-vs-4 start: FM must end strictly balanced.
        init = Bisection.from_sides(small_grid, range(12))
        result = fiduccia_mattheyses(small_grid, init=init)
        assert result.bisection.is_balanced()

    def test_repair_on_weighted_graph(self, weighted_graph):
        init = Bisection.from_sides(weighted_graph, [0, 1, 4, 5])  # 8 vs 2
        result = fiduccia_mattheyses(weighted_graph, init=init)
        assert result.bisection.imbalance == 0

    def test_explicit_tolerance(self, small_grid):
        result = fiduccia_mattheyses(small_grid, rng=5, balance_tolerance=2)
        assert result.bisection.imbalance <= 2

    def test_negative_tolerance_rejected(self, small_grid):
        with pytest.raises(ValueError, match="balance_tolerance"):
            fiduccia_mattheyses(small_grid, rng=5, balance_tolerance=-1)


class TestFMQuality:
    def test_matches_exact_on_small(self):
        for seed in range(3):
            g = gnp(14, 0.3, rng=seed + 300)
            optimum = exact_bisection_width(g)
            best = min(fiduccia_mattheyses(g, rng=s).cut for s in range(4))
            assert best <= optimum + 2

    def test_grid_reasonable(self):
        best = min(fiduccia_mattheyses(grid_graph(6, 6), rng=s).cut for s in range(3))
        assert best <= 10

    def test_refines_contracted_graph(self, gbreg_sample):
        g = gbreg_sample.graph
        coarse = compact(g, random_maximal_matching(g, rng=1)).coarse
        result = fiduccia_mattheyses(coarse, rng=6)
        assert result.bisection.is_balanced()
        assert result.cut == cut_weight(coarse, result.bisection.assignment())


class TestFMProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_invariants(self, seed):
        g = gnp(20, 0.2, seed)
        result = fiduccia_mattheyses(g, rng=seed)
        b = result.bisection
        assert b.is_balanced()
        assert b.cut == cut_weight(g, b.assignment())
        assert result.cut <= result.initial_cut

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_weighted_invariants(self, seed):
        g = gnp(24, 0.15, seed)
        coarse = compact(g, random_maximal_matching(g, seed)).coarse
        result = fiduccia_mattheyses(coarse, rng=seed)
        assert result.bisection.is_balanced()
