"""Unit tests for the Gbreg model (regular with planted bisection width)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import feasible_bisection_widths, gbreg, parity_fixed_width
from repro.graphs.properties import is_regular, is_simple
from repro.partition.bisection import Bisection


class TestGbregStructure:
    def test_regular_and_simple(self):
        sample = gbreg(100, b=8, d=3, rng=1)
        sample.graph.validate()
        assert is_regular(sample.graph, 3)
        assert is_simple(sample.graph)

    def test_planted_cut_exact(self):
        sample = gbreg(100, b=8, d=3, rng=2)
        assert Bisection.from_sides(sample.graph, sample.side_a).cut == 8

    def test_sides_partition(self):
        sample = gbreg(60, b=4, d=4, rng=3)
        assert sample.side_a | sample.side_b == set(range(60))
        assert not (sample.side_a & sample.side_b)

    def test_metadata(self):
        sample = gbreg(40, b=2, d=3, rng=4)
        assert sample.planted_width == 2
        assert sample.degree == 3

    def test_degree_4_even_b(self):
        sample = gbreg(80, b=6, d=4, rng=5)
        assert is_regular(sample.graph, 4)
        assert Bisection.from_sides(sample.graph, sample.side_a).cut == 6

    def test_degree_2_is_cycle_union(self):
        from repro.graphs.traversal import cycle_decomposition

        sample = gbreg(60, b=2, d=2, rng=6)
        cycles = cycle_decomposition(sample.graph)
        assert sum(len(c) for c in cycles) == 60

    def test_zero_width(self):
        sample = gbreg(40, b=0, d=4, rng=7)
        assert Bisection.from_sides(sample.graph, sample.side_a).cut == 0

    def test_deterministic(self):
        a = gbreg(50 * 2, b=4, d=3, rng=12)
        b = gbreg(50 * 2, b=4, d=3, rng=12)
        assert a.graph == b.graph


class TestGbregValidation:
    def test_odd_vertices_rejected(self):
        with pytest.raises(ValueError):
            gbreg(101, b=2, d=3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            gbreg(10, b=2, d=5)  # d >= n = 5

    def test_width_too_large_rejected(self):
        with pytest.raises(ValueError):
            gbreg(10, b=100, d=3)

    def test_parity_violation_rejected(self):
        # n = 5, d = 3: n*d = 15 odd, so b must be odd.
        with pytest.raises(ValueError, match="parity"):
            gbreg(10, b=2, d=3)

    def test_parity_allowed_odd(self):
        sample = gbreg(10, b=3, d=3, rng=8)
        assert is_regular(sample.graph, 3)


class TestFeasibleWidths:
    def test_matches_parity(self):
        widths = feasible_bisection_widths(100, 3, 10)
        # n = 50, n*d = 150 even: even widths only.
        assert widths == [0, 2, 4, 6, 8, 10]

    def test_odd_parity(self):
        widths = feasible_bisection_widths(10, 3, 6)
        assert widths == [1, 3, 5]

    def test_odd_vertices_rejected(self):
        with pytest.raises(ValueError):
            feasible_bisection_widths(11, 3, 5)

    @pytest.mark.parametrize("num_vertices,degree", [(100, 3), (10, 3), (120, 4)])
    def test_parity_fixed_width_rounds_up_to_feasible(self, num_vertices, degree):
        feasible = feasible_bisection_widths(num_vertices, degree, 12)
        for width in range(11):
            fixed = parity_fixed_width(num_vertices, degree, width)
            assert fixed == min(b for b in feasible if b >= width)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_random_seeds_valid(self, seed):
        sample = gbreg(48, b=4, d=3, rng=seed)
        sample.graph.validate()
        assert is_regular(sample.graph, 3)
        assert Bisection.from_sides(sample.graph, sample.side_a).cut == 4
