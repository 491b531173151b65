"""Unit tests for matching contraction and projection (paper steps 2 & 4)."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.csr import CSRGraph, cached_csr, csr_view
from repro.graphs.generators import (
    cycle_graph,
    gbreg,
    gnp,
    gnp_with_degree,
    ladder_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.shm import SharedGraphSegment
from repro.partition.bisection import Bisection, cut_weight
from repro.partition.random_init import random_bisection
from repro.rng import LaggedFibonacciRandom


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


def _gbreg(seed):
    return gbreg(80, 4, 3, LaggedFibonacciRandom(seed)).graph


def _gnp(seed):
    return gnp_with_degree(70, 3.0, LaggedFibonacciRandom(seed))


def _contracted_twice(seed):
    """Weighted edges and vertex weights 1-4: Gnp contracted twice."""
    rng = LaggedFibonacciRandom(seed)
    graph = gnp_with_degree(90, 3.0, rng)
    for _ in range(2):
        graph = compact(graph, random_maximal_matching(graph, rng)).coarse
    return graph


def _mixed_labels(seed):
    """Mixed ``int``/``str`` labels, which do not sort."""
    source = _gbreg(seed)
    label = {v: v if v % 3 else f"s{v}" for v in source.vertices()}
    graph = Graph()
    for v in source.vertices():
        graph.add_vertex(label[v], source.vertex_weight(v))
    for u, v, w in source.edges():
        graph.add_edge(label[u], label[v], w)
    return graph


FAMILIES = {
    "gbreg": _gbreg,
    "gnp": _gnp,
    "contracted_twice": _contracted_twice,
    "mixed_labels": _mixed_labels,
}


def _compaction(family, seed):
    graph = FAMILIES[family](seed)
    return compact(graph, random_maximal_matching(graph, LaggedFibonacciRandom(seed)))


def _assert_same_csr(seen: CSRGraph, expected: CSRGraph) -> None:
    """Every slot and every list mirror of ``seen`` equals ``expected``'s."""
    for name in ("labels", "index_of", "rank", "by_rank"):
        assert getattr(seen, name) == getattr(expected, name), name
    assert list(seen.index_of.items()) == list(expected.index_of.items())
    for name in ("indptr", "indices", "edge_weight", "vertex_weight", "heads"):
        array = getattr(seen, name)
        assert array.typecode == "q", name
        assert list(array) == list(getattr(expected, name)), name
    for name in (
        "num_vertices",
        "num_edges",
        "total_edge_weight",
        "total_vertex_weight",
        "max_weighted_degree",
        "unit_edge_weights",
        "unit_vertex_weights",
    ):
        assert getattr(seen, name) == getattr(expected, name), name
    assert seen.neighbor_lists() == expected.neighbor_lists()
    assert seen.weight_lists() == expected.weight_lists()
    assert seen.weighted_degrees() == expected.weighted_degrees()
    assert seen.vertex_weight_list() == expected.vertex_weight_list()
    assert seen.head_tail_lists() == expected.head_tail_lists()
    assert seen.weight_classes() == expected.weight_classes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", (0, 1, 2))
class TestIdProjectionAndCoarseCSR:
    def test_project_equals_label_reference(self, family, seed):
        compaction = _compaction(family, seed)
        coarse = compaction.coarse
        rng = LaggedFibonacciRandom(seed + 100)
        coarse_sides = {s: rng.randrange(2) for s in coarse.vertices()}
        reference = {}
        for s, group in compaction.members.items():
            for v in group:
                reference[v] = coarse_sides[s]
        projected = compaction.project(Bisection(coarse, coarse_sides))
        assert projected.graph is compaction.original
        assert list(projected.assignment().items()) == [
            (v, reference[v]) for v in compaction.original.vertices()
        ]

    def test_coarse_csr_equals_fresh_compile(self, family, seed):
        compaction = _compaction(family, seed)
        _assert_same_csr(csr_view(compaction.coarse), CSRGraph.compile(compaction.coarse.copy()))

    def test_mutating_coarse_drops_its_csr(self, family, seed):
        compaction = _compaction(family, seed)
        coarse = compaction.coarse
        before = csr_view(coarse)
        coarse.add_vertex("extra")
        assert cached_csr(coarse) is None
        after = csr_view(coarse)
        assert after is not before
        assert after.num_vertices == before.num_vertices + 1

    def test_coarse_is_born_compiled(self, family, seed):
        compaction = _compaction(family, seed)
        seeded = cached_csr(compaction.coarse)
        assert seeded is not None
        assert seeded.labels == list(compaction.coarse.vertices())

    def test_super_of_matches_parent(self, family, seed):
        compaction = _compaction(family, seed)
        compaction.validate()
        assert compaction.fine_labels == list(compaction.original.vertices())
        assert [compaction.parent[v] for v in compaction.fine_labels] == compaction.super_of


def _assert_rows_list_each_neighbour_once(csr: CSRGraph) -> None:
    """The kernels read ``w(a, b)`` off ``a``'s row, at the first ``b`` in it."""
    nbrs, wts = csr.neighbor_lists(), csr.weight_lists()
    assert list(map(len, nbrs)) == list(map(len, wts))
    for row in nbrs:
        assert len(set(row)) == len(row)
    assert sum(map(sum, wts)) == 2 * csr.total_edge_weight


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_no_row_lists_a_neighbour_twice(family, seed):
    once = _compaction(family, seed)
    twice = compact(
        once.coarse, random_maximal_matching(once.coarse, LaggedFibonacciRandom(seed))
    )
    _assert_rows_list_each_neighbour_once(csr_view(once.original))
    _assert_rows_list_each_neighbour_once(cached_csr(once.coarse))
    _assert_rows_list_each_neighbour_once(cached_csr(twice.coarse))
    # Contracting merges parallel edges into one slot of summed weight.
    assert max(cached_csr(twice.coarse).edge_weight) > 1
    owner = SharedGraphSegment.create(twice.coarse)
    attached = SharedGraphSegment.attach(owner.name)
    try:
        _assert_rows_list_each_neighbour_once(attached.graph()._derived["csr"])
    finally:
        attached.close()
        owner.close()
        owner.unlink()


def test_project_goes_by_label_after_the_original_changes():
    graph = gbreg(60, 4, 3, LaggedFibonacciRandom(2)).graph
    compaction = compact(graph, random_maximal_matching(graph, LaggedFibonacciRandom(2)))
    coarse = compaction.coarse
    coarse_sides = {s: s % 2 for s in coarse.vertices()}
    before = compaction.project(Bisection(coarse, coarse_sides)).assignment()
    # Re-adding a vertex moves it to the end of the vertex order, so a
    # fresh view numbers the vertices differently from ``fine_labels``.
    u = compaction.fine_labels[0]
    edges = list(graph.neighbor_items(u))
    graph.remove_vertex(u)
    for v, w in edges:
        graph.add_edge(u, v, w)
    assert csr_view(graph).labels != compaction.fine_labels
    after = compaction.project(Bisection(coarse, coarse_sides))
    assert after.assignment() == before
    assert after.cut == cut_weight(graph, before)


def test_ckl_compiles_only_the_input_graph(monkeypatch):
    from repro.core.pipeline import ckl
    from repro.obs import REGISTRY

    monkeypatch.setenv("REPRO_OBS", "1")
    graph = gbreg(120, 6, 3, LaggedFibonacciRandom(4)).graph
    compiles = REGISTRY.counter("csr_compiles_total")
    before = compiles.value
    ckl(graph, rng=3)
    assert compiles.value - before == 1


def test_contracting_a_hub_costs_what_a_path_does():
    """Merging a fine edge costs O(1) however long its coarse row grows.

    A star's centre gathers every other vertex in one coarse row; a path
    with as many edges has rows of two.  A merge that scanned the row
    would walk the centre's row once per fine edge, some 90 times the
    path's time at this size.
    """
    n = 20_000

    def best_time(graph):
        matching = random_maximal_matching(graph, LaggedFibonacciRandom(1))
        times = []
        for _ in range(3):
            began = time.perf_counter()
            compact(graph, matching)
            times.append(time.perf_counter() - began)
        return min(times)

    star, path = star_graph(n), path_graph(n + 1)
    assert star.num_edges == path.num_edges == n
    assert best_time(star) < 4 * best_time(path)


@pytest.mark.parametrize(
    "bad",
    [
        [(0, 0)],  # a self-pair
        [(0, 1), (1, 2)],  # vertex 1 twice
        [(0, 3)],  # not an edge
        [(0, 99)],  # not a vertex
    ],
)
def test_invalid_matching_rejected_on_ids(bad):
    with pytest.raises(ValueError, match="matching"):
        compact(path_graph(5), bad)


def _rows_built(graph: Graph) -> bool:
    """Whether ``graph``'s dict rows exist, asked without building them."""
    return graph._adj is not None


@pytest.fixture
def row_builds(monkeypatch):
    """Every graph whose dict rows get built from its CSR view while active."""
    built = []
    rows = Graph._rows

    def spy(graph):
        if not _rows_built(graph):
            built.append(graph)
        return rows(graph)

    monkeypatch.setattr(Graph, "_rows", spy)
    return built


def test_ckl_and_multilevel_build_no_coarse_rows(row_builds):
    from repro.core.multilevel import multilevel_bisection
    from repro.core.pipeline import ckl

    # Seed 0 on this graph rebalances a projected start on a 42-vertex G'.
    graph = gbreg(400, 6, 3, LaggedFibonacciRandom(0)).graph
    result = ckl(graph, rng=3)
    multilevel_bisection(graph, rng=0)
    assert row_builds == []
    coarse = result.compaction.coarse
    assert not _rows_built(coarse)
    coarse.adjacency(0)
    assert row_builds == [coarse] and _rows_built(coarse)


def test_rebalance_builds_no_coarse_rows(row_builds):
    from repro.partition.bisection import rebalance

    coarse = _compaction("contracted_twice", 0).coarse
    assignment = dict.fromkeys(coarse.vertices(), 0)
    rebalance(coarse, assignment)
    assert sum(assignment.values()) > 0
    assert row_builds == []
    assert not _rows_built(coarse)
