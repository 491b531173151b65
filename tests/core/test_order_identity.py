"""Matching and contraction over CSR ids keep the label walk's exact order.

``random_maximal_matching`` and ``compact`` work on the fine graph's CSR
integer ids.  Their results must equal, element for element and in order,
what the label-keyed edge walk produces: the shuffled edge list picks the
same matching (and draws the same random numbers), and every supervertex
lists its neighbours in the order an ``add_edge(..., merge=True)`` loop
over ``graph.edges()`` creates them — FM buckets and SA's CSR sampling on
G' read that order.  The two reference functions below are that walk,
kept here as the oracle.

Mixed ``int``/``str`` labels do not sort, so their CSR rank is insertion
order; the last tests run every KL/FM/SA-based bisector on them end to
end against the cut-recount and balance oracles.
"""

from __future__ import annotations

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.core.multilevel import multilevel_bisection
from repro.core.pipeline import ckl, csa
from repro.graphs.csr import csr_view
from repro.graphs.generators import gbreg, gnp_with_degree
from repro.graphs.graph import Graph
from repro.kernels import kernel_backend
from repro.partition.annealing import AnnealingSchedule
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom, resolve_rng
from repro.verify.invariants import check_result


def _reference_matching(graph, rng):
    rng = resolve_rng(rng)
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng.shuffle(edges)
    matched = set()
    matching = []
    for u, v in edges:
        if u not in matched and v not in matched:
            matching.append((u, v))
            matched.add(u)
            matched.add(v)
    return matching


def _reference_compact(graph, matching):
    parent = {}
    members = {}
    next_label = 0
    for u, v in matching:
        parent[u] = parent[v] = next_label
        members[next_label] = (u, v)
        next_label += 1
    for v in graph.vertices():
        if v not in parent:
            parent[v] = next_label
            members[next_label] = (v,)
            next_label += 1
    coarse = Graph()
    for super_v, group in members.items():
        coarse.add_vertex(super_v, sum(graph.vertex_weight(v) for v in group))
    for u, v, w in graph.edges():
        pu, pv = parent[u], parent[v]
        if pu != pv:
            coarse.add_edge(pu, pv, w, merge=True)
    return coarse, members, parent


def _relabel(graph, label):
    relabeled = Graph()
    for v in graph.vertices():
        relabeled.add_vertex(label(v), graph.vertex_weight(v))
    for u, v, w in graph.edges():
        relabeled.add_edge(label(u), label(v), w)
    return relabeled


def _strings(seed):
    graph = gbreg(60, 4, 3, LaggedFibonacciRandom(seed)).graph
    return _relabel(graph, lambda v: f"v{v:03d}")


def _mixed(seed):
    graph = gbreg(60, 4, 3, LaggedFibonacciRandom(seed)).graph
    return _relabel(graph, lambda v: v if v % 3 else f"s{v}")


def _isolated(seed):
    graph = gnp_with_degree(60, 1.2, LaggedFibonacciRandom(seed))
    for extra in range(5):
        graph.add_vertex(1000 + extra)
    return graph


def _weighted(seed):
    """Merged edge weights and vertex weights 1-4: Gnp contracted twice."""
    rng = LaggedFibonacciRandom(seed)
    graph = gnp_with_degree(80, 3.0, rng)
    for _ in range(2):
        graph = _reference_compact(graph, _reference_matching(graph, rng))[0]
    return graph


FAMILIES = {
    "strings": _strings,
    "mixed": _mixed,
    "isolated": _isolated,
    "weighted": _weighted,
}


def _assert_same_compaction(graph, matching):
    coarse, members, parent = _reference_compact(graph, matching)
    compaction = compact(graph, matching)
    compaction.validate()
    compaction.coarse.validate()
    assert list(compaction.members.items()) == list(members.items())
    assert list(compaction.parent.items()) == list(parent.items())
    assert list(compaction.coarse.vertices()) == list(coarse.vertices())
    for s in coarse.vertices():
        assert compaction.coarse.vertex_weight(s) == coarse.vertex_weight(s)
        assert list(compaction.coarse.adjacency(s).items()) == list(
            coarse.adjacency(s).items()
        )
    assert compaction.coarse.num_edges == coarse.num_edges
    assert compaction.coarse.total_edge_weight == coarse.total_edge_weight


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", (0, 1, 2))
class TestOrderIdentity:
    def test_matching(self, family, seed):
        graph = FAMILIES[family](seed)
        expected_rng = LaggedFibonacciRandom(seed)
        rng = LaggedFibonacciRandom(seed)
        assert random_maximal_matching(graph, rng) == _reference_matching(
            graph, expected_rng
        )
        assert rng.random() == expected_rng.random()  # same draws consumed

    def test_compaction(self, family, seed):
        graph = FAMILIES[family](seed)
        _assert_same_compaction(graph, _reference_matching(graph, seed))

    def test_compaction_of_reversed_pairs(self, family, seed):
        # Pair orientation and order come from the caller, not the graph.
        graph = FAMILIES[family](seed)
        matching = [(v, u) for u, v in reversed(_reference_matching(graph, seed))]
        _assert_same_compaction(graph, matching)


def test_mixed_labels_rank_in_insertion_order():
    view = csr_view(_mixed(0))
    assert {type(v) for v in view.labels} == {int, str}
    assert view.rank == view.by_rank == list(range(view.num_vertices))


SHORT_SCHEDULE = AnnealingSchedule(size_factor=1, max_temperatures=8)
BISECTORS = {
    "kl": kernighan_lin,
    "fm": fiduccia_mattheyses,
    "ckl": ckl,
    "csa": lambda graph, rng: csa(graph, rng=rng, schedule=SHORT_SCHEDULE),
    "multilevel": multilevel_bisection,
}


@pytest.mark.parametrize("algorithm", sorted(BISECTORS))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_mixed_labels_pass_the_oracles(monkeypatch, algorithm, seed):
    # The dict reference kernels break gain ties by comparing labels,
    # which mixed labels cannot do; they run on a CSR backend.
    if kernel_backend() == "dict":
        monkeypatch.setenv("REPRO_KERNEL", "array")
    graph = _mixed(seed)
    result = BISECTORS[algorithm](graph, rng=seed)
    assert check_result(graph, result) == []


def test_weighted_family_has_weight_classes_and_merged_edges():
    graph = _weighted(0)
    assert len({graph.vertex_weight(v) for v in graph.vertices()}) >= 3
    assert any(w > 1 for _, _, w in graph.edges())


def test_empty_graph():
    graph = Graph()
    assert random_maximal_matching(graph, 0) == _reference_matching(graph, 0) == []
    _assert_same_compaction(graph, [])
    assert compact(graph, []).coarse.num_vertices == 0
