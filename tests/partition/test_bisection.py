"""Unit tests for the Bisection value type and balance utilities."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import csr_view
from repro.graphs.generators import cycle_graph, gnp, ladder_graph
from repro.graphs.graph import Graph
from repro.partition.bisection import (
    Bisection,
    cut_weight,
    _subset_sums,
    default_tolerance,
    minimum_achievable_imbalance,
    rebalance,
    side_weights,
)


class TestCutWeight:
    def test_no_cut(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert cut_weight(g, {0: 0, 1: 0, 2: 1, 3: 1}) == 0

    def test_full_cut(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert cut_weight(g, {0: 0, 1: 1, 2: 0, 3: 1}) == 2

    def test_weighted_cut(self):
        g = Graph.from_edges([(0, 1, 5)])
        assert cut_weight(g, {0: 0, 1: 1}) == 5


class TestBisectionBasics:
    def test_from_sides(self, small_ladder):
        b = Bisection.from_sides(small_ladder, range(6))
        assert b.side(0) == frozenset(range(6))
        assert b.side(1) == frozenset(range(6, 12))

    def test_cut_cached_and_correct(self, small_ladder):
        # Left/right split of a 6-rung ladder: vertical cut through 2 rails.
        left = [0, 1, 2, 6, 7, 8]
        b = Bisection.from_sides(small_ladder, left)
        assert b.cut == 2
        assert b.cut == 2  # cached path

    def test_sizes_and_weights(self, small_ladder):
        b = Bisection.from_sides(small_ladder, range(6))
        assert b.sizes == (6, 6)
        assert b.weights == (6, 6)
        assert b.imbalance == 0

    def test_side_of(self, triangle):
        b = Bisection.from_sides(triangle, [0])
        assert b.side_of(0) == 0
        assert b.side_of(1) == 1

    def test_weighted_imbalance(self, weighted_graph):
        b = Bisection.from_sides(weighted_graph, [0, 1])  # weights 2+2 vs 1+1+2+2
        assert b.weights == (4, 6)
        assert b.imbalance == 2

    def test_missing_vertex_rejected(self, triangle):
        with pytest.raises(ValueError, match="missing"):
            Bisection(triangle, {0: 0, 1: 1})

    def test_bad_side_value_rejected(self, triangle):
        with pytest.raises(ValueError, match="0 or 1"):
            Bisection(triangle, {0: 0, 1: 1, 2: 2})

    def test_unknown_vertex_in_sides_rejected(self, triangle):
        with pytest.raises(ValueError):
            Bisection.from_sides(triangle, [0, 99])

    def test_assignment_returns_copy(self, triangle):
        b = Bisection.from_sides(triangle, [0])
        a = b.assignment()
        a[0] = 1
        assert b.side_of(0) == 0

    def test_side_requires_valid_index(self, triangle):
        b = Bisection.from_sides(triangle, [0])
        with pytest.raises(ValueError):
            b.side(2)


class TestBisectionEquality:
    def test_equal_up_to_renaming(self, small_ladder):
        b1 = Bisection.from_sides(small_ladder, range(6))
        b2 = Bisection.from_sides(small_ladder, range(6, 12))
        assert b1 == b2

    def test_unequal(self, small_ladder):
        b1 = Bisection.from_sides(small_ladder, range(6))
        b2 = Bisection.from_sides(small_ladder, [0, 1, 2, 6, 7, 8])
        assert b1 != b2

    def test_matches_sides(self, gbreg_sample):
        b = Bisection.from_sides(gbreg_sample.graph, gbreg_sample.side_a)
        assert b.matches_sides(gbreg_sample.side_a)
        assert b.matches_sides(gbreg_sample.side_b)

    def test_repr(self, triangle):
        b = Bisection.from_sides(triangle, [0])
        assert "cut=2" in repr(b)


class TestBalance:
    def test_default_tolerance_even(self, small_ladder):
        assert default_tolerance(small_ladder) == 0

    def test_default_tolerance_odd(self):
        assert default_tolerance(cycle_graph(5)) == 1

    def test_default_tolerance_weighted(self, weighted_graph):
        # Weights 2,2,1,1,2,2: total 10, achievable split 5/5 (e.g. 2+2+1).
        assert default_tolerance(weighted_graph) == 0

    def test_is_balanced(self, small_ladder):
        balanced = Bisection.from_sides(small_ladder, range(6))
        lopsided = Bisection.from_sides(small_ladder, range(4))
        assert balanced.is_balanced()
        assert not lopsided.is_balanced()
        assert lopsided.is_balanced(tolerance=4)


class TestMinimumAchievableImbalance:
    def test_unit_weights(self):
        assert minimum_achievable_imbalance([1] * 6) == 0
        assert minimum_achievable_imbalance([1] * 7) == 1

    def test_all_twos_odd_count(self):
        assert minimum_achievable_imbalance([2, 2, 2]) == 2

    def test_mixed(self):
        assert minimum_achievable_imbalance([2, 2, 1, 1]) == 0
        assert minimum_achievable_imbalance([5, 1, 1]) == 3

    def test_single_weight(self):
        assert minimum_achievable_imbalance([7]) == 7

    def test_empty(self):
        assert minimum_achievable_imbalance([]) == 0

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, weights):
        from itertools import combinations

        best = min(
            abs(sum(weights) - 2 * sum(subset))
            for r in range(len(weights) + 1)
            for subset in combinations(weights, r)
        )
        assert minimum_achievable_imbalance(weights) == best

    def test_grouped_sweep_matches_one_shift_per_weight(self):
        # Large runs of equal weights (contracted graphs are mostly 1s and
        # 2s) shift in doubling chunks; the bitset must be the one a shift
        # per weight builds.
        rng = random.Random(7)
        for _ in range(200):
            weights = [rng.choice((1, 2, 2, 3, 7, 40)) for _ in range(rng.randrange(80))]
            reachable, total = 1, 0
            for w in weights:
                reachable |= reachable << w
                total += w
            assert _subset_sums(weights) == (reachable, total)
            assert minimum_achievable_imbalance(weights) == min(
                abs(2 * s - total) for s in range(total + 1) if (reachable >> s) & 1
            )


class TestRebalance:
    def test_noop_when_balanced(self, small_ladder):
        assignment = {v: (0 if v < 6 else 1) for v in small_ladder.vertices()}
        before = dict(assignment)
        rebalance(small_ladder, assignment, 0)
        assert assignment == before

    def test_restores_unit_balance(self, small_ladder):
        assignment = {v: 0 for v in small_ladder.vertices()}
        assignment[11] = 1
        rebalance(small_ladder, assignment, 0)
        w0, w1 = side_weights(small_ladder, assignment)
        assert w0 == w1

    def test_prefers_low_damage_moves(self):
        # Path 0-1-2-3: moving an endpoint cuts 1 edge, an inner vertex 2.
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assignment = {0: 0, 1: 0, 2: 0, 3: 1}
        rebalance(g, assignment, 0)
        assert cut_weight(g, assignment) == 1

    def test_weighted_stepping_stone(self):
        # Heavy side all 2s, light side has the 1s: needs the flip-then-move
        # two-step that strict-decrease-only rebalancing cannot do.
        g = Graph()
        for v, w in [(0, 2), (1, 2), (2, 1), (3, 1), (4, 1), (5, 1)]:
            g.add_vertex(v, w)
        assignment = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
        rebalance(g, assignment, 0)
        w0, w1 = side_weights(g, assignment)
        assert abs(w0 - w1) == 0

    def test_unreachable_tolerance_raises(self):
        g = Graph()
        g.add_vertex(0, 4)
        g.add_vertex(1, 1)
        assignment = {0: 0, 1: 1}
        with pytest.raises(ValueError, match="cannot rebalance"):
            rebalance(g, assignment, 0)

    def test_terminates_on_oscillation_prone_weights(self):
        # All weight-2 vertices with an odd count: tolerance 2 is the
        # achievable floor; requesting 0 must raise, not loop.
        g = Graph()
        for v in range(5):
            g.add_vertex(v, 2)
        assignment = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
        with pytest.raises(ValueError):
            rebalance(g, assignment, 0)


class TestSideWeights:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_weights_sum_to_total(self, seed):
        g = gnp(24, 0.2, seed)
        assignment = {v: v % 2 for v in g.vertices()}
        w0, w1 = side_weights(g, assignment)
        assert w0 + w1 == g.total_vertex_weight


class TestFromIdSides:
    """A bisection built from an id-indexed side list equals the dict-built one."""

    def test_same_bisection_as_the_label_map(self, weighted_graph):
        csr = csr_view(weighted_graph)
        sides = [i % 2 for i in range(csr.num_vertices)]
        by_ids = Bisection.from_id_sides(weighted_graph, sides)
        by_labels = Bisection(weighted_graph, dict(zip(csr.labels, sides)))
        assert by_ids.assignment() == by_labels.assignment()
        assert list(by_ids.assignment()) == list(weighted_graph.vertices())
        assert (by_ids.cut, by_ids.weights, by_ids.sizes) == (
            by_labels.cut,
            by_labels.weights,
            by_labels.sizes,
        )

    def test_wrong_length_rejected(self, triangle):
        with pytest.raises(ValueError, match="3 vertices"):
            Bisection.from_id_sides(triangle, [0, 1])

    def test_bad_side_value_rejected(self, triangle):
        labels = csr_view(triangle).labels
        with pytest.raises(ValueError, match=rf"0 or 1 \(vertex {labels[2]!r}\)"):
            Bisection.from_id_sides(triangle, [0, 1, 2])

    def test_sides_over_is_a_fresh_list(self, small_ladder):
        csr = csr_view(small_ladder)
        sides = [i % 2 for i in range(csr.num_vertices)]
        b = Bisection.from_id_sides(small_ladder, sides)
        copy = b.sides_over(csr)
        assert copy == sides and copy is not sides
        copy[0] = 1 - copy[0]
        assert b.sides_over(csr) == sides

    def test_sides_over_another_view_goes_by_label(self, small_ladder):
        b = Bisection.from_sides(small_ladder, range(6))
        twin = small_ladder.copy()
        csr = csr_view(twin)
        assert b.sides_over(csr) == [b.side_of(v) for v in csr.labels]

    def test_counts_follow_the_graph_after_a_mutation(self, small_ladder):
        rails_apart = [0 if v < 6 else 1 for v in csr_view(small_ladder).labels]
        b = Bisection.from_id_sides(small_ladder, rails_apart)
        small_ladder.add_edge(0, 11, 3)
        assert b.cut == cut_weight(small_ladder, b.assignment()) == 6 + 3
