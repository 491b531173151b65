"""Unit tests for random initial bisections."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.csr import csr_view
from repro.graphs.generators import cycle_graph, gnp, path_graph
from repro.graphs.graph import Graph
from repro.partition.bisection import Bisection, default_tolerance, rebalance
from repro.partition.random_init import random_assignment, random_bisection, random_sides
from repro.rng import LaggedFibonacciRandom


class TestUnitWeights:
    def test_exactly_balanced_even(self):
        b = random_bisection(path_graph(10), rng=1)
        assert b.sizes == (5, 5)

    def test_odd_within_one(self):
        b = random_bisection(cycle_graph(7), rng=2)
        assert abs(b.sizes[0] - b.sizes[1]) == 1

    def test_deterministic_given_seed(self):
        g = path_graph(20)
        assert random_bisection(g, rng=5) == random_bisection(g, rng=5)

    def test_varies_with_seed(self):
        g = path_graph(40)
        results = {frozenset(random_bisection(g, rng=s).side(0)) for s in range(8)}
        assert len(results) > 1

    def test_uniformity_over_vertices(self):
        # Every vertex should land on side 0 about half the time.
        g = path_graph(10)
        counts = {v: 0 for v in g.vertices()}
        trials = 300
        for s in range(trials):
            b = random_bisection(g, rng=s)
            for v in b.side(0):
                counts[v] += 1
        for v, c in counts.items():
            assert 0.3 * trials < c < 0.7 * trials, f"vertex {v} biased: {c}/{trials}"


class TestWeighted:
    def test_contracted_graph_balanced(self, gbreg_sample):
        g = gbreg_sample.graph
        coarse = compact(g, random_maximal_matching(g, rng=3)).coarse
        b = random_bisection(coarse, rng=4)
        assert b.is_balanced()

    def test_respects_explicit_tolerance(self, weighted_graph):
        b = random_bisection(weighted_graph, rng=1, tolerance=0)
        assert b.imbalance == 0

    def test_heavy_vertices_best_effort(self):
        # Weights 4 and 1: perfect balance impossible; must not raise.
        g = Graph()
        g.add_vertex(0, 4)
        g.add_vertex(1, 1)
        b = random_bisection(g, rng=1)
        assert b.imbalance == 3

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_weighted_always_near_balanced(self, seed):
        g = gnp(40, 0.1, seed)
        coarse = compact(g, random_maximal_matching(g, seed)).coarse
        b = random_bisection(coarse, rng=seed)
        # Weights are 1 and 2, so the achievable floor is at most 2.
        assert b.imbalance <= 2


class TestInterface:
    def test_accepts_random_instance(self):
        rng = LaggedFibonacciRandom(3)
        assignment = random_assignment(path_graph(6), rng)
        assert set(assignment.values()) == {0, 1}

    def test_assignment_covers_all_vertices(self):
        g = gnp(30, 0.1, rng=1)
        assignment = random_assignment(g, rng=2)
        assert set(assignment) == set(g.vertices())

    def test_bad_rng_type_rejected(self):
        with pytest.raises(TypeError):
            random_bisection(path_graph(4), rng="seed")


def _label_reference(graph, rng, tolerance=None) -> dict:
    """The split drawn over the vertex list itself: shuffle the labels,
    halve them (unit weights) or deal them heaviest-first (weighted)."""
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    if graph.is_uniform_vertex_weight():
        cut = len(vertices) - len(vertices) // 2
        return {v: 0 if k < cut else 1 for k, v in enumerate(vertices)}
    vertices.sort(key=graph.vertex_weight, reverse=True)
    assignment, w0, w1 = {}, 0, 0
    for v in vertices:
        if w0 <= w1:
            assignment[v], w0 = 0, w0 + graph.vertex_weight(v)
        else:
            assignment[v], w1 = 1, w1 + graph.vertex_weight(v)
    if abs(w0 - w1) > (default_tolerance(graph) if tolerance is None else tolerance):
        try:
            rebalance(graph, assignment, tolerance, rng)
        except ValueError:
            pass
    return assignment


class TestIdSides:
    """Drawing over CSR ids picks the split a draw over labels would."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("weighted", (False, True))
    def test_same_split_and_stream_as_the_label_reference(self, seed, weighted):
        g = gnp(41, 0.1, seed)
        if weighted:
            g = compact(g, random_maximal_matching(g, seed)).coarse
        ours, reference = LaggedFibonacciRandom(seed), LaggedFibonacciRandom(seed)
        sides = random_sides(g, ours)
        expected = _label_reference(g, reference)
        assert dict(zip(csr_view(g).labels, sides)) == expected
        assert ours.getstate() == reference.getstate()

    def test_rebalance_path_matches_the_reference(self):
        # Heaviest-first deals weights 3, 3, 2, 2, 2 as 7 against 5, and no
        # single move reaches 6/6: rebalance runs and gives up.
        g = Graph()
        for v, w in enumerate((2, 3, 2, 3, 2)):
            g.add_vertex(v, w)
        for v in range(4):
            g.add_edge(v, v + 1)
        for seed in range(6):
            ours, reference = LaggedFibonacciRandom(seed), LaggedFibonacciRandom(seed)
            sides = random_sides(g, ours)
            assert dict(zip(csr_view(g).labels, sides)) == _label_reference(g, reference)
            assert Bisection.from_id_sides(g, sides).imbalance == 2
            assert ours.getstate() == reference.getstate()

    def test_empty_graph(self):
        assert random_sides(Graph(), 1) == []
