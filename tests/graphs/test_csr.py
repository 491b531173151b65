"""Tests for the CSR view: round-trips, caching, invalidation, fallbacks."""

from __future__ import annotations

import pytest

from repro.graphs.csr import (
    CSRGraph,
    cached_csr,
    csr_cut_weight,
    csr_move_gains,
    csr_side_weights,
    csr_view,
)
from repro.graphs.generators import gbreg
from repro.graphs.graph import Graph, graph_fingerprint
from repro.partition.bisection import cut_weight, side_weights
from repro.rng import LaggedFibonacciRandom


def _path_graph(n=5):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def _weighted_graph():
    g = Graph()
    g.add_vertex("a", 2)
    g.add_vertex("b", 1)
    g.add_vertex("c", 3)
    g.add_edge("a", "b", 4)
    g.add_edge("b", "c", 5)
    g.add_edge("a", "c", 1)
    return g


class TestRoundTrip:
    def test_structure_matches_graph(self):
        g = gbreg(40, 4, 3, LaggedFibonacciRandom(0)).graph
        view = csr_view(g)
        assert view.num_vertices == g.num_vertices
        assert view.num_edges == g.num_edges
        assert view.total_edge_weight == g.total_edge_weight
        assert len(view.indices) == 2 * g.num_edges
        # Every adjacency row round-trips to the graph's neighbor map.
        for i, v in enumerate(view.labels):
            row = {
                view.labels[view.indices[k]]: view.edge_weight[k]
                for k in range(view.indptr[i], view.indptr[i + 1])
            }
            assert row == dict(g.neighbor_items(v))

    def test_labels_follow_insertion_order(self):
        g = Graph.from_edges([("c", "a"), ("a", "b")])
        assert csr_view(g).labels == list(g.vertices())

    def test_weights_round_trip(self):
        g = _weighted_graph()
        view = csr_view(g)
        assert list(view.vertex_weight) == [2, 1, 3]
        assert not view.unit_vertex_weights
        assert not view.unit_edge_weights
        assert view.total_vertex_weight == 6

    def test_assignment_round_trip(self):
        g = _path_graph(6)
        view = csr_view(g)
        assignment = {v: v % 2 for v in g.vertices()}
        sides = view.sides_list(assignment)
        assert view.assignment_dict(sides) == assignment

    def test_rank_orders_like_labels(self):
        g = Graph.from_edges([("d", "b"), ("b", "a"), ("a", "c")])
        view = csr_view(g)
        by_label = sorted(range(view.num_vertices), key=view.labels.__getitem__)
        assert view.by_rank == by_label
        for i in range(view.num_vertices):
            assert view.by_rank[view.rank[i]] == i

    def test_incomparable_labels_rank_in_insertion_order(self):
        g = Graph.from_edges([("a", 1), (1, "b")])
        view = csr_view(g)
        assert view.labels == ["a", 1, "b"]
        assert view.rank == [0, 1, 2]
        assert view.by_rank == [0, 1, 2]


class TestQueries:
    def test_cut_and_side_weights_match_dict_path(self):
        g = gbreg(60, 6, 3, LaggedFibonacciRandom(1)).graph
        view = csr_view(g)
        assignment = {v: i % 2 for i, v in enumerate(g.vertices())}
        sides = view.sides_list(assignment)
        assert csr_cut_weight(view, sides) == cut_weight(g, assignment)
        assert csr_side_weights(view, sides) == side_weights(g, assignment)

    def test_weighted_cut_and_side_weights(self):
        g = _weighted_graph()
        view = csr_view(g)
        assignment = {"a": 0, "b": 1, "c": 0}
        sides = view.sides_list(assignment)
        assert csr_cut_weight(view, sides) == 9  # edges a-b (4) and b-c (5)
        assert csr_side_weights(view, sides) == (5, 1)

    def test_move_gains_match_brute_force(self):
        g = gbreg(40, 4, 3, LaggedFibonacciRandom(2)).graph
        view = csr_view(g)
        assignment = {v: i % 2 for i, v in enumerate(g.vertices())}
        gains = csr_move_gains(view, view.sides_list(assignment))
        base = cut_weight(g, assignment)
        for i, v in enumerate(view.labels):
            flipped = dict(assignment)
            flipped[v] = 1 - flipped[v]
            assert gains[i] == base - cut_weight(g, flipped)


class TestCaching:
    def test_view_is_cached(self):
        g = _path_graph()
        assert cached_csr(g) is None
        view = csr_view(g)
        assert cached_csr(g) is view
        assert csr_view(g) is view

    def test_mutation_invalidates(self):
        g = _path_graph()
        view = csr_view(g)
        g.add_edge(0, 4)
        assert cached_csr(g) is None
        fresh = csr_view(g)
        assert fresh is not view
        assert fresh.num_edges == view.num_edges + 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex("new"),
            lambda g: g.add_edge(0, 2),
            lambda g: g.remove_edge(0, 1),
            lambda g: g.remove_vertex(4),
        ],
    )
    def test_every_mutator_invalidates(self, mutate):
        g = _path_graph()
        csr_view(g)
        mutate(g)
        assert cached_csr(g) is None

    def test_fingerprint_is_cached_and_invalidated(self):
        g = _path_graph()
        first = graph_fingerprint(g)
        assert g._derived["fingerprint"] == first
        assert graph_fingerprint(g) == first
        g.add_edge(0, 3)
        assert "fingerprint" not in g._derived
        assert graph_fingerprint(g) != first

    def test_copy_shares_derived_snapshot(self):
        g = _path_graph()
        view = csr_view(g)
        clone = g.copy()
        assert cached_csr(clone) is view
        # Mutating the clone must not clear the original's cache.
        clone.add_edge(0, 2)
        assert cached_csr(clone) is None
        assert cached_csr(g) is view


class TestEscapeHatch:
    def test_cut_weight_ignores_cold_cache(self):
        # A cold graph never pays a compile just to answer cut_weight.
        g = _path_graph()
        assignment = {v: v % 2 for v in g.vertices()}
        assert cut_weight(g, assignment) == 4
        assert cached_csr(g) is None


def test_doctest_example():
    g = Graph.from_edges([("a", "b"), ("b", "c")])
    view = CSRGraph.compile(g)
    assert list(view.indptr) == [0, 1, 3, 4]
    assert [view.labels[i] for i in view.indices] == ["b", "a", "c", "b"]
