"""Kernel subsystem unit tests: bulk LFG stream, gains.

These tests pin down the building blocks in isolation — the exactness of
block lagged-Fibonacci generation against the scalar generator, and the
batch gain/recount kernels against a recount from the graph's own
adjacency on edge-case graphs (empty, isolated vertices, weighted).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import (
    csr_cut_weight,
    csr_gains_cut,
    csr_move_gains,
    csr_side_weights,
    csr_view,
)
from repro.graphs.generators import gbreg
from repro.graphs.graph import Graph
from repro.rng import LaggedFibonacciRandom, fill_block, history, restore_state


def _warmed_rng(seed: int, burn: int = 7) -> LaggedFibonacciRandom:
    rng = LaggedFibonacciRandom(seed)
    for _ in range(burn):
        rng.getrandbits(64)
    return rng


class TestBulkLfg:
    @pytest.mark.parametrize("count", [1, 24, 25, 55, 100, 240])
    def test_fill_block_matches_scalar_stream(self, count):
        rng = _warmed_rng(7)
        values, _ = fill_block(history(rng), count)
        reference = [rng.getrandbits(64) for _ in range(count)]
        assert values[:count] == reference

    def test_new_hist_chains_blocks(self):
        rng = _warmed_rng(3)
        values1, hist = fill_block(history(rng), 60)
        values2, _ = fill_block(hist, 60)
        reference = [rng.getrandbits(64) for _ in range(len(values1) + 60)]
        assert (values1 + values2)[: len(reference)] == reference

    @given(
        st.lists(
            st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1])
            | st.integers(min_value=0, max_value=2**64 - 1),
            min_size=55,
            max_size=55,
        ),
        st.integers(min_value=1, max_value=130),
    )
    @settings(max_examples=60, deadline=None)
    def test_fill_block_carry_edges(self, hist, count):
        # Lane-boundary carries: the top bit of every lane is the one the
        # packed add must get right.
        stream = list(hist)
        values: list[int] = []
        h = hist
        for _ in range(3):
            block, h = fill_block(h, count)
            values += block
        while len(stream) < 55 + len(values):
            stream.append((stream[-24] + stream[-55]) % 2**64)
        assert values == stream[55:]
        assert h == stream[-55:]
        assert len(values) == 3 * -(-count // 24) * 24

    @pytest.mark.parametrize("total", [0, 1, 30, 55, 56, 123])
    def test_restore_state_resumes_the_stream(self, total):
        consumed = _warmed_rng(19)
        block = _warmed_rng(19)
        idx0 = block._index
        values, _ = fill_block(history(block), max(total, 1))
        window = values[:total][-55:]
        restore_state(block, idx0, total, window)

        for _ in range(total):
            consumed.getrandbits(64)
        assert block.getstate() == consumed.getstate()
        draws = [block.getrandbits(64) for _ in range(10)]
        assert draws == [consumed.getrandbits(64) for _ in range(10)]


def _weighted_graph() -> Graph:
    graph = Graph()
    for label, weight in (("a", 2), ("b", 1), ("c", 3), ("d", 1)):
        graph.add_vertex(label, weight)
    graph.add_edge("a", "b", 5)
    graph.add_edge("b", "c", 1)
    graph.add_edge("c", "d", 2)
    graph.add_edge("a", "d", 4)
    return graph


def _with_isolated(seed: int) -> Graph:
    graph = gbreg(20, 4, 3, LaggedFibonacciRandom(seed)).graph
    graph.add_vertex(-1)
    graph.add_vertex(-2)
    return graph


def _recount(graph: Graph, sides: list[int]):
    """Gains, cut and side weights straight from the ``Graph`` adjacency."""
    side_of = dict(zip(graph.vertices(), sides))
    gains = [
        sum(w if side_of[u] != side_of[v] else -w for u, w in graph.neighbor_items(v))
        for v in graph.vertices()
    ]
    cut = sum(w for u, v, w in graph.edges() if side_of[u] != side_of[v])
    w1 = sum(graph.vertex_weight(v) for v in graph.vertices() if side_of[v])
    return gains, cut, (graph.total_vertex_weight - w1, w1)


class TestGainKernels:
    """The CSR gain and recount kernels against the ``Graph``'s own adjacency."""

    CASES = {
        "empty": Graph,
        "weighted": _weighted_graph,
        "isolated": lambda: _with_isolated(5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_three_kernels_agree(self, case):
        graph = self.CASES[case]()
        csr = csr_view(graph)
        n = csr.num_vertices
        for split in range(3):  # a few distinct partitions, incl. lopsided
            sides = [(i + split) % 2 if split < 2 else 0 for i in range(n)]
            gains, cut, weights = _recount(graph, sides)
            assert csr_move_gains(csr, sides) == gains
            assert csr_cut_weight(csr, sides) == cut
            assert csr_side_weights(csr, sides) == weights

    def test_empty_graph_zeroes(self):
        csr = csr_view(Graph())
        assert csr_move_gains(csr, []) == []
        assert csr_cut_weight(csr, []) == 0
        assert csr_side_weights(csr, []) == (0, 0)

    def test_gain_sign_convention(self):
        # One crossing edge of weight 5: moving either endpoint un-cuts it.
        graph = Graph()
        graph.add_edge("u", "v", 5)
        csr = csr_view(graph)
        assert csr_move_gains(csr, [0, 1]) == [5, 5]
        assert csr_move_gains(csr, [0, 0]) == [-5, -5]
        assert csr_cut_weight(csr, [0, 1]) == 5


def _row_gains(csr, sides: list[int]) -> list[int]:
    """Move gains summed row by row over the neighbour lists."""
    gains = []
    for i, row in enumerate(csr.neighbor_lists()):
        to_one = sum(w for u, w in zip(row, csr.weight_lists()[i]) if sides[u])
        to_zero = sum(w for u, w in zip(row, csr.weight_lists()[i]) if not sides[u])
        gains.append(to_one - to_zero if sides[i] == 0 else to_zero - to_one)
    return gains


def _single_edge() -> Graph:
    graph = Graph()
    graph.add_edge("u", "v")
    return graph


def _only_isolated() -> Graph:
    graph = Graph()
    for v in range(5):
        graph.add_vertex(v)
    return graph


class TestUnitWeightGains:
    """The prefix-sum gain path on unit-weight graphs, against a per-row sum."""

    CASES = {
        "empty": Graph,
        "single_edge": _single_edge,
        "only_isolated": _only_isolated,
        "isolated_0": lambda: _with_isolated(0),
        "isolated_7": lambda: _with_isolated(7),
        "isolated_first": lambda: Graph.from_edges([(3, 4), (4, 5)], vertices=[9, 3, 4, 5]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_gains_and_gain_cut_match_the_rows(self, case, seed):
        graph = self.CASES[case]()
        csr = csr_view(graph)
        assert csr.unit_edge_weights
        rng = LaggedFibonacciRandom(seed)
        sides = [rng.randrange(2) for _ in range(csr.num_vertices)]
        gains = csr_move_gains(csr, sides)
        assert gains == _row_gains(csr, sides)
        assert csr_gains_cut(csr, sides, gains) == csr_cut_weight(csr, sides)

    def test_single_edge_values(self):
        csr = csr_view(_single_edge())
        assert csr_move_gains(csr, [0, 1]) == [1, 1]
        assert csr_move_gains(csr, [1, 1]) == [-1, -1]
        assert csr_gains_cut(csr, [1, 0], [1, 1]) == 1

    @pytest.mark.parametrize("case", sorted(TestGainKernels.CASES))
    def test_gain_cut_on_the_weighted_cases(self, case):
        graph = TestGainKernels.CASES[case]()
        csr = csr_view(graph)
        for split in range(3):
            sides = [(i + split) % 2 if split < 2 else 0 for i in range(csr.num_vertices)]
            gains = csr_move_gains(csr, sides)
            assert csr_gains_cut(csr, sides, gains) == _recount(graph, sides)[1]
