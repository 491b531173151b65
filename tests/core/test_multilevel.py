"""Unit tests for recursive-coalescing (multilevel) bisection."""

from __future__ import annotations

import pytest

from repro.core.multilevel import multilevel_bisection
from repro.graphs.generators import (
    complete_graph,
    gbreg,
    gnp,
    grid_graph,
    ladder_graph,
)
from repro.graphs.graph import Graph


class TestMultilevelBasics:
    def test_balanced_result(self, gbreg_sample):
        result = multilevel_bisection(gbreg_sample.graph, rng=1)
        assert result.bisection.is_balanced()

    def test_level_bookkeeping(self, gbreg_sample):
        result = multilevel_bisection(gbreg_sample.graph, rng=2, coarsest_size=16)
        assert result.levels == len(result.level_sizes)
        assert result.levels == len(result.level_cuts)
        # Sizes grow from coarsest to original.
        assert result.level_sizes[-1] == gbreg_sample.graph.num_vertices
        assert all(
            a <= b for a, b in zip(result.level_sizes, result.level_sizes[1:])
        )

    def test_refinement_never_hurts(self, gbreg_sample):
        result = multilevel_bisection(gbreg_sample.graph, rng=3)
        # The projected cut equals the previous level's cut, and the
        # refiner only improves it, so cuts are non-increasing upward.
        assert all(
            later <= earlier
            for earlier, later in zip(result.level_cuts, result.level_cuts[1:])
        )

    def test_max_levels(self, gbreg_sample):
        result = multilevel_bisection(gbreg_sample.graph, rng=4, max_levels=1)
        assert result.levels <= 2

    def test_coarsest_size_respected(self):
        g = ladder_graph(100)
        result = multilevel_bisection(g, rng=5, coarsest_size=20)
        assert result.level_sizes[0] <= 40  # one matching halves at best

    def test_small_graph_no_coarsening(self):
        g = grid_graph(3, 4)
        result = multilevel_bisection(g, rng=6, coarsest_size=32)
        assert result.levels == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multilevel_bisection(Graph())

    def test_invalid_coarsest_size(self, triangle):
        with pytest.raises(ValueError):
            multilevel_bisection(triangle, coarsest_size=1)

    def test_deterministic(self, gbreg_sample):
        a = multilevel_bisection(gbreg_sample.graph, rng=7)
        b = multilevel_bisection(gbreg_sample.graph, rng=7)
        assert a.cut == b.cut


class TestMultilevelQuality:
    def test_ladder_optimal(self):
        # Multilevel shines exactly where plain KL fails (Fig. 3 family).
        result = multilevel_bisection(ladder_graph(200), rng=9)
        assert result.cut == 2

    def test_sparse_gbreg_near_planted(self):
        sample = gbreg(300, b=8, d=3, rng=10)
        result = multilevel_bisection(sample.graph, rng=11)
        assert result.cut <= sample.planted_width + 6

    def test_beats_single_level_on_ladders(self):
        from repro.core.pipeline import ckl

        g = ladder_graph(150)
        single = min(ckl(g, rng=s).cut for s in range(2))
        multi = min(multilevel_bisection(g, rng=s).cut for s in range(2))
        assert multi <= single

    def test_dense_graph(self):
        result = multilevel_bisection(complete_graph(16), rng=12)
        assert result.cut == 64

    def test_disconnected_components(self):
        g = gnp(60, 0.05, rng=13)
        result = multilevel_bisection(g, rng=14)
        assert result.bisection.is_balanced()
