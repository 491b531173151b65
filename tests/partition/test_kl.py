"""Unit tests for the Kernighan-Lin implementation (paper Fig. 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.generators import (
    complete_bipartite_graph,
    gbreg,
    gnp,
    grid_graph,
    ladder_graph,
)
from repro.graphs.csr import csr_move_gains, csr_view
from repro.graphs.graph import Graph
from repro.kernels.kl import kl_sequence_multi
from repro.partition.bisection import Bisection, cut_weight
from repro.partition.exact import exact_bisection_width
from repro.partition.kl import kernighan_lin, kl_pass
from repro.partition.random_init import random_assignment
from repro.rng import LaggedFibonacciRandom


class TestKLBasics:
    def test_two_cliques_finds_bridge(self, two_cliques):
        result = kernighan_lin(two_cliques, rng=1)
        assert result.cut == 1
        assert result.bisection.is_balanced()

    def test_result_counters_consistent(self, two_cliques):
        result = kernighan_lin(two_cliques, rng=2)
        assert result.initial_cut >= result.cut
        assert sum(result.pass_gains) == result.initial_cut - result.cut
        assert result.passes >= 1

    def test_respects_init(self, two_cliques):
        init = Bisection.from_sides(two_cliques, [0, 1, 2, 3])
        result = kernighan_lin(two_cliques, init=init)
        assert result.initial_cut == 1
        assert result.cut == 1
        assert result.passes == 1  # already optimal: first pass finds nothing

    def test_max_passes_limits_work(self, gbreg_sample):
        result = kernighan_lin(gbreg_sample.graph, rng=3, max_passes=1)
        assert result.passes == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            kernighan_lin(Graph())

    def test_foreign_init_rejected(self, two_cliques, triangle):
        init = Bisection.from_sides(triangle, [0])
        with pytest.raises(ValueError):
            kernighan_lin(two_cliques, init=init)

    def test_deterministic_given_seed(self, gbreg_sample):
        a = kernighan_lin(gbreg_sample.graph, rng=7)
        b = kernighan_lin(gbreg_sample.graph, rng=7)
        assert a.cut == b.cut
        assert a.bisection == b.bisection

    def test_two_vertices(self):
        g = Graph.from_edges([(0, 1)])
        result = kernighan_lin(g, rng=1)
        assert result.cut == 1  # the only bisection

    def test_balance_preserved(self, small_grid):
        result = kernighan_lin(small_grid, rng=4)
        assert result.bisection.is_balanced()


class TestKLQuality:
    def test_matches_exact_on_small_graphs(self):
        # KL from a few starts should hit the optimum on tiny instances.
        for seed in range(3):
            g = gnp(12, 0.3, rng=seed + 100)
            optimum = exact_bisection_width(g)
            best = min(kernighan_lin(g, rng=s).cut for s in range(4))
            assert best == optimum

    def test_grid_near_optimal(self):
        result = min(kernighan_lin(grid_graph(6, 6), rng=s).cut for s in range(3))
        assert result <= 8  # optimum 6; KL occasionally lands nearby

    def test_gbreg_degree4_finds_planted(self):
        sample = gbreg(120, b=4, d=4, rng=9)
        best = min(kernighan_lin(sample.graph, rng=s).cut for s in range(2))
        assert best <= 8  # at worst a whisker above the planted width

    def test_complete_bipartite_balanced_split(self):
        # K(4,4): every balanced bisection cuts at least 8; KL must not
        # report anything below the true minimum.
        g = complete_bipartite_graph(4, 4)
        result = kernighan_lin(g, rng=1)
        assert result.cut >= 8
        assert result.cut == exact_bisection_width(g)

    def test_never_worse_than_start(self, gbreg_sample):
        for seed in range(3):
            result = kernighan_lin(gbreg_sample.graph, rng=seed)
            assert result.cut <= result.initial_cut


class TestKLPass:
    def test_pass_gain_matches_cut_change(self, gbreg_sample):
        g = gbreg_sample.graph
        assignment = random_assignment(g, rng=5)
        before = cut_weight(g, assignment)
        gain, swaps = kl_pass(g, assignment)
        after = cut_weight(g, assignment)
        assert before - after == gain
        assert gain >= 0
        assert swaps >= 0

    def test_pass_preserves_balance(self, gbreg_sample):
        g = gbreg_sample.graph
        assignment = random_assignment(g, rng=6)
        kl_pass(g, assignment)
        sides = sum(assignment.values())
        assert 2 * sides == g.num_vertices

    def test_pass_at_optimum_is_zero(self, two_cliques):
        assignment = {v: 0 if v < 4 else 1 for v in two_cliques.vertices()}
        gain, swaps = kl_pass(two_cliques, assignment)
        assert gain == 0
        assert swaps == 0


class TestKLWeighted:
    def test_contracted_graph_swaps_preserve_weighted_balance(self, gbreg_sample):
        g = gbreg_sample.graph
        coarse = compact(g, random_maximal_matching(g, rng=1)).coarse
        result = kernighan_lin(coarse, rng=2)
        assert result.bisection.is_balanced()

    def test_weighted_edges_drive_gains(self):
        # Star of heavy edges: optimal split keeps the heavy pair together.
        g = Graph.from_edges([(0, 1, 10), (1, 2, 1), (2, 3, 10), (3, 0, 1)])
        result = kernighan_lin(g, rng=1)
        assert result.cut == 2

    def test_weight_classes_never_mix(self, weighted_graph):
        result = kernighan_lin(weighted_graph, rng=3)
        b = result.bisection
        assert b.imbalance <= 0  # weights 2,2,1,1,2,2 admit an exact split


class TestKLSelectionCorrectness:
    """The pruned-heap selection must pick a true max-gain pair.

    This targets the trickiest code in the package: `_select_pair`'s
    early-termination bound.  We reconstruct the first selected pair of a
    pass and compare its gain against a brute-force argmax over all cross
    pairs.
    """

    @staticmethod
    def _brute_force_best_gain(graph, assignment):
        side0 = [v for v in graph.vertices() if assignment[v] == 0]
        side1 = [v for v in graph.vertices() if assignment[v] == 1]
        gains = {}
        for v in graph.vertices():
            side_v = assignment[v]
            gains[v] = sum(
                w if assignment[u] != side_v else -w
                for u, w in graph.neighbor_items(v)
            )
        return max(
            gains[a] + gains[b] - 2 * graph.edge_weight(a, b)
            for a in side0
            for b in side1
        )

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_first_swap_matches_brute_force(self, seed):
        g = gnp(16, 0.3, seed)
        assignment = random_assignment(g, rng=seed)
        best = self._brute_force_best_gain(g, assignment)
        before = cut_weight(g, assignment)
        gain, swaps = kl_pass(g, dict(assignment))
        # The pass's total applied gain can exceed the single best swap
        # (prefix effect), but if the best single swap is positive the
        # pass must achieve at least that much.
        if best > 0:
            assert gain >= best
        # And it must never claim more than the cut allows.
        assert gain <= before

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_selection_on_weighted_edges(self, seed):
        # Same property with merged (weighted) edges, where the -2w(a,b)
        # correction actually bites.
        base = gnp(14, 0.35, seed)
        g = Graph.from_edges(
            [(u, v, 1 + (hash((u, v)) % 3)) for u, v, _ in base.edges()]
        )
        if g.num_vertices < 4 or g.num_vertices % 2:
            return
        assignment = random_assignment(g, rng=seed)
        best = self._brute_force_best_gain(g, assignment)
        gain, _ = kl_pass(g, dict(assignment))
        if best > 0:
            assert gain >= best

    # -- the multi-weight-class kernel (contracted graphs) ----------------------

    @staticmethod
    def _first_multi_pair(graph, assignment):
        """First pair the multi-class kernel selects, as labels plus gain."""
        csr = csr_view(graph)
        sides = csr.sides_list(assignment)
        sequence = kl_sequence_multi(csr, sides, csr_move_gains(csr, sides))
        a, b, gain = sequence[0]
        return csr.labels[a], csr.labels[b], gain

    @staticmethod
    def _brute_force_equal_weight(graph, assignment):
        """Best ``g_a + g_b - 2 w(a, b)`` over equal-weight cross pairs."""
        gains = {
            v: sum(
                w if assignment[u] != assignment[v] else -w
                for u, w in graph.neighbor_items(v)
            )
            for v in graph.vertices()
        }
        weight = graph.vertex_weight
        return max(
            gains[a] + gains[b] - 2 * graph.edge_weight(a, b)
            for a in graph.vertices()
            if assignment[a] == 0
            for b in graph.vertices()
            if assignment[b] == 1 and weight(a) == weight(b)
        ), gains

    @staticmethod
    def _contracted(seed, rounds):
        rng = LaggedFibonacciRandom(seed)
        g = gnp(40, 0.12, rng)
        for _ in range(rounds):
            g = compact(g, random_maximal_matching(g, rng)).coarse
        return g

    @pytest.mark.parametrize("rounds,min_classes", [(1, 2), (2, 3)])
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_multi_class_first_pair_is_argmax(self, rounds, min_classes, seed):
        g = self._contracted(seed, rounds)
        classes = {g.vertex_weight(v) for v in g.vertices()}
        if len(classes) < min_classes:
            return
        assignment = random_assignment(g, rng=seed)
        best, gains = self._brute_force_equal_weight(g, assignment)
        a, b, gain = self._first_multi_pair(g, assignment)
        assert gain == best
        assert (assignment[a], assignment[b]) == (0, 1)
        assert g.vertex_weight(a) == g.vertex_weight(b)
        assert gains[a] + gains[b] - 2 * g.edge_weight(a, b) == best

    @pytest.mark.parametrize("first_weight", [1, 2])
    @pytest.mark.parametrize("kernel", ["array", "dict"])
    def test_equal_class_gains_first_appearing_weight_wins(
        self, monkeypatch, first_weight, kernel
    ):
        # Both classes offer a best pair of gain 2.  The class whose weight
        # appears first in vertex order wins, whatever the weight's value
        # and although its labels sort last.
        other = 3 - first_weight
        g = Graph()
        for v, w in [("z0", first_weight), ("a0", other), ("z1", first_weight), ("a1", other)]:
            g.add_vertex(v, w)
        g.add_edge("z0", "a1")
        g.add_edge("a0", "z1")
        assignment = {"z0": 0, "a0": 0, "z1": 1, "a1": 1}
        assert self._first_multi_pair(g, assignment) == ("z0", "z1", 2)

        monkeypatch.setenv("REPRO_KERNEL", kernel)
        gain, swaps = kl_pass(g, assignment)
        assert (gain, swaps) == (2, 1)
        assert assignment == {"z0": 1, "a0": 0, "z1": 0, "a1": 1}


class TestKLProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_invariants_on_random_graphs(self, seed):
        g = gnp(24, 0.15, seed)
        result = kernighan_lin(g, rng=seed)
        b = result.bisection
        assert b.is_balanced()
        assert b.cut == cut_weight(g, b.assignment())
        assert result.cut <= result.initial_cut
        assert all(gain > 0 for gain in result.pass_gains)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_ladder_known_weakness_bounded(self, seed):
        # The paper calls ladders a KL failure mode: KL may do badly but
        # must always return a valid balanced bisection.
        result = kernighan_lin(ladder_graph(16), rng=seed)
        assert result.bisection.is_balanced()
        assert result.cut >= 2  # can never beat the true optimum
