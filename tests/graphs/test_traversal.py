"""Unit tests for BFS/DFS/components/cycle decomposition."""

from __future__ import annotations

import pytest

from repro.graphs.generators import cycle_graph, disjoint_cycles, grid_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    bfs_layers,
    bfs_order,
    connected_components,
    cycle_decomposition,
    dfs_order,
    is_connected,
    shortest_path_lengths,
)


class TestBFS:
    def test_bfs_order_path(self):
        g = path_graph(5)
        assert bfs_order(g, 0) == [0, 1, 2, 3, 4]

    def test_bfs_order_from_middle(self):
        g = path_graph(5)
        order = bfs_order(g, 2)
        assert order[0] == 2
        assert set(order) == set(range(5))
        # Distance never decreases along the order.
        dist = shortest_path_lengths(g, 2)
        assert [dist[v] for v in order] == sorted(dist[v] for v in order)

    def test_bfs_layers(self):
        g = grid_graph(3, 3)
        layers = list(bfs_layers(g, 0))
        assert layers[0] == [0]
        assert set(layers[1]) == {1, 3}
        assert sum(len(layer) for layer in layers) == 9

    def test_bfs_restricted_to_component(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert set(bfs_order(g, 0)) == {0, 1}


class TestDFS:
    def test_dfs_order_visits_all(self):
        g = grid_graph(3, 3)
        assert set(dfs_order(g, 0)) == set(range(9))

    def test_dfs_preorder_on_path(self):
        g = path_graph(4)
        assert dfs_order(g, 0) == [0, 1, 2, 3]

    def test_dfs_single_vertex(self):
        g = Graph()
        g.add_vertex(7)
        assert dfs_order(g, 7) == [7]


class TestComponents:
    def test_connected_components_counts(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)], vertices=[9])
        comps = connected_components(g)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 2, 3]

    def test_is_connected_true(self):
        assert is_connected(path_graph(10))

    def test_is_connected_false(self):
        assert not is_connected(Graph.from_edges([(0, 1), (2, 3)]))

    def test_empty_graph_connected(self):
        assert is_connected(Graph())

    def test_components_partition_vertices(self):
        g = disjoint_cycles([3, 4, 5])
        comps = connected_components(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(seen) == sorted(g.vertices())


class TestShortestPaths:
    def test_distances_on_cycle(self):
        g = cycle_graph(6)
        dist = shortest_path_lengths(g, 0)
        assert dist[3] == 3
        assert dist[5] == 1

    def test_unreachable_absent(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        dist = shortest_path_lengths(g, 0)
        assert 2 not in dist

    def test_distances_on_diamond(self):
        # 0 - 1 - 3 and 0 - 2 - 3, plus the chord 1 - 2.
        g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
        assert shortest_path_lengths(g, 0) == {0: 0, 1: 1, 2: 1, 3: 2}


class TestCycleDecomposition:
    def test_single_cycle(self):
        g = cycle_graph(5)
        cycles = cycle_decomposition(g)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == list(range(5))

    def test_multiple_cycles(self):
        g = disjoint_cycles([3, 4, 6])
        cycles = cycle_decomposition(g)
        assert sorted(len(c) for c in cycles) == [3, 4, 6]

    def test_cycle_order_is_adjacent(self):
        g = disjoint_cycles([7])
        (cycle,) = cycle_decomposition(g)
        for i, v in enumerate(cycle):
            assert g.has_edge(v, cycle[(i + 1) % len(cycle)])

    def test_rejects_non_degree_2(self):
        with pytest.raises(ValueError, match="degree"):
            cycle_decomposition(path_graph(4))
