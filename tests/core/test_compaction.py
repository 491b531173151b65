"""Unit tests for matching contraction and projection (paper steps 2 & 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.generators import cycle_graph, gnp, ladder_graph, path_graph
from repro.graphs.graph import Graph
from repro.partition.bisection import Bisection
from repro.partition.random_init import random_bisection


class TestCompactStructure:
    def test_vertex_count_drops_by_matching_size(self, small_ladder):
        m = random_maximal_matching(small_ladder, rng=1)
        comp = compact(small_ladder, m)
        assert comp.coarse.num_vertices == small_ladder.num_vertices - len(m)

    def test_supervertex_weights(self, small_ladder):
        m = random_maximal_matching(small_ladder, rng=2)
        comp = compact(small_ladder, m)
        for super_v, group in comp.members.items():
            assert comp.coarse.vertex_weight(super_v) == len(group)
            assert len(group) in (1, 2)

    def test_parent_and_members_consistent(self, small_grid):
        m = random_maximal_matching(small_grid, rng=3)
        comp = compact(small_grid, m)
        for super_v, group in comp.members.items():
            for v in group:
                assert comp.parent[v] == super_v
        assert set(comp.parent) == set(small_grid.vertices())

    def test_total_weights_preserved(self, small_grid):
        m = random_maximal_matching(small_grid, rng=4)
        comp = compact(small_grid, m)
        assert comp.coarse.total_vertex_weight == small_grid.num_vertices
        # Edge weight drops exactly by the contracted matching edges.
        assert (
            comp.coarse.total_edge_weight
            == small_grid.total_edge_weight - len(m)
        )

    def test_matched_edge_vanishes(self):
        g = path_graph(4)
        comp = compact(g, [(1, 2)])
        assert comp.coarse.num_vertices == 3
        super_v = comp.parent[1]
        assert not comp.coarse.has_edge(super_v, super_v) if super_v in comp.coarse else True
        comp.coarse.validate()

    def test_parallel_edges_merge(self):
        # Triangle with matched edge (0,1): both 0-2 and 1-2 collapse into
        # one weight-2 edge from the supervertex to 2.
        g = cycle_graph(3)
        comp = compact(g, [(0, 1)])
        super_v = comp.parent[0]
        assert comp.coarse.edge_weight(super_v, comp.parent[2]) == 2
        assert comp.coarse.num_edges == 1

    def test_average_degree_increases(self):
        # Section V: compaction raises the average degree of sparse graphs.
        # Parallel edges merge into weights, so the meaningful density is
        # the *weighted* degree (2 * total edge weight / |V'|).
        g = ladder_graph(20)
        m = random_maximal_matching(g, rng=5)
        comp = compact(g, m)
        density_before = 2 * g.total_edge_weight / g.num_vertices
        density_after = 2 * comp.coarse.total_edge_weight / comp.coarse.num_vertices
        assert density_after > density_before

    def test_empty_matching_is_isomorphic_copy(self, triangle):
        comp = compact(triangle, [])
        assert comp.coarse.num_vertices == 3
        assert comp.coarse.num_edges == 3
        assert comp.compaction_ratio == 1.0

    def test_compaction_ratio_half_for_perfect_matching(self):
        g = path_graph(4)
        comp = compact(g, [(0, 1), (2, 3)])
        assert comp.compaction_ratio == 0.5

    def test_invalid_matching_rejected(self, triangle):
        with pytest.raises(ValueError, match="matching"):
            compact(triangle, [(0, 1), (1, 2)])


class TestProjection:
    def test_projected_cut_equals_coarse_cut(self, gbreg_sample):
        g = gbreg_sample.graph
        m = random_maximal_matching(g, rng=6)
        comp = compact(g, m)
        coarse_bisection = random_bisection(comp.coarse, rng=7)
        projected = comp.project(coarse_bisection)
        assert projected.cut == coarse_bisection.cut

    def test_projected_balance_equals_weighted_balance(self, gbreg_sample):
        g = gbreg_sample.graph
        m = random_maximal_matching(g, rng=8)
        comp = compact(g, m)
        coarse_bisection = random_bisection(comp.coarse, rng=9)
        projected = comp.project(coarse_bisection)
        assert projected.imbalance == coarse_bisection.imbalance

    def test_pairs_stay_together(self, small_grid):
        m = random_maximal_matching(small_grid, rng=10)
        comp = compact(small_grid, m)
        projected = comp.project(random_bisection(comp.coarse, rng=11))
        for u, v in m:
            assert projected.side_of(u) == projected.side_of(v)

    def test_foreign_bisection_rejected(self, small_grid, triangle):
        comp = compact(small_grid, [])
        with pytest.raises(ValueError):
            comp.project(Bisection.from_sides(triangle, [0]))


class TestCompactionProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_invariants_on_random_graphs(self, seed):
        g = gnp(40, 0.12, seed)
        m = random_maximal_matching(g, seed)
        comp = compact(g, m)
        comp.validate()
        comp.coarse.validate()
        assert comp.coarse.total_vertex_weight == g.num_vertices
        coarse_bisection = random_bisection(comp.coarse, rng=seed)
        projected = comp.project(coarse_bisection)
        assert projected.cut == coarse_bisection.cut
        assert projected.imbalance == coarse_bisection.imbalance

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_double_compaction(self, seed):
        # Contracting an already contracted graph (as multilevel does)
        # keeps all bookkeeping exact.
        g = gnp(40, 0.15, seed)
        comp1 = compact(g, random_maximal_matching(g, seed))
        comp2 = compact(comp1.coarse, random_maximal_matching(comp1.coarse, seed + 1))
        comp1.validate()
        comp2.validate()
        comp2.coarse.validate()
        assert comp2.coarse.total_vertex_weight == g.num_vertices
