"""Unit tests for graph property helpers and model diagnostics."""

from __future__ import annotations

import pytest

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    gbreg,
    ladder_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    degree_histogram,
    degree_statistics,
    expected_gnp_degree,
    gnp_probability_for_degree,
    is_regular,
    is_simple,
    max_degree,
    min_degree,
    planted_probability_for_degree,
    random_bisection_expected_cut,
)


class TestDegreeStats:
    def test_histogram_path(self):
        assert degree_histogram(path_graph(4)) == {1: 2, 2: 2}

    def test_min_max_degree(self):
        g = ladder_graph(5)
        assert min_degree(g) == 2  # corners
        assert max_degree(g) == 3

    def test_empty_graph_degrees(self):
        g = Graph()
        assert min_degree(g) == 0
        assert max_degree(g) == 0

    def test_degree_statistics(self):
        stats = degree_statistics(cycle_graph(8))
        assert stats == {"min": 2.0, "max": 2.0, "mean": 2.0, "std": 0.0}

    def test_degree_statistics_empty(self):
        assert degree_statistics(Graph())["mean"] == 0.0


class TestRegularity:
    def test_cycle_is_2_regular(self):
        assert is_regular(cycle_graph(6))
        assert is_regular(cycle_graph(6), 2)
        assert not is_regular(cycle_graph(6), 3)

    def test_path_not_regular(self):
        assert not is_regular(path_graph(4))

    def test_complete_graph_regular(self):
        assert is_regular(complete_graph(5), 4)

    def test_gbreg_is_d_regular(self):
        sample = gbreg(60, b=4, d=3, rng=5)
        assert is_regular(sample.graph, 3)

    def test_is_simple(self):
        assert is_simple(path_graph(3))
        g = Graph.from_edges([(0, 1), (0, 1)])  # merged parallel edge
        assert not is_simple(g)

    def test_is_simple_rejects_weighted_vertices(self):
        g = Graph()
        g.add_vertex(0, 2)
        with pytest.raises(ValueError):
            is_simple(g)


class TestModelMath:
    def test_expected_gnp_degree(self):
        assert expected_gnp_degree(101, 0.1) == pytest.approx(10.0)

    def test_gnp_probability_roundtrip(self):
        p = gnp_probability_for_degree(1000, 3.0)
        assert expected_gnp_degree(1000, p) == pytest.approx(3.0)

    def test_gnp_probability_bounds(self):
        with pytest.raises(ValueError):
            gnp_probability_for_degree(10, 20.0)
        with pytest.raises(ValueError):
            gnp_probability_for_degree(1, 0.5)

    def test_planted_probability_hits_degree(self):
        two_n, avg_degree, bis = 200, 3.0, 10
        p = planted_probability_for_degree(two_n, avg_degree, bis)
        n = two_n // 2
        expected_edges = 2 * p * n * (n - 1) / 2 + bis
        assert 2 * expected_edges / two_n == pytest.approx(avg_degree)

    def test_planted_probability_infeasible(self):
        with pytest.raises(ValueError):
            planted_probability_for_degree(20, 0.1, 50)  # cross edges alone exceed target
        with pytest.raises(ValueError):
            planted_probability_for_degree(21, 3.0, 1)  # odd 2n

    def test_random_bisection_expected_cut(self):
        g = complete_graph(4)  # 6 edges, 2n=4: expected cut 6 * 2/3 = 4
        assert random_bisection_expected_cut(g) == pytest.approx(4.0)

    def test_random_bisection_expected_cut_small(self):
        assert random_bisection_expected_cut(Graph()) == 0.0
