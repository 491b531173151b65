"""Kernel subsystem unit tests: backend switch, bulk LFG stream, gains.

The decision-identity contract between backends is enforced end to end
by the kernel matrix in ``tests/partition/test_csr_equivalence.py``;
these tests pin down the building blocks in isolation — the
``REPRO_KERNEL`` parsing rules, the exactness of block lagged-Fibonacci
generation against the scalar generator, and the batch gain/recount
kernels on edge-case graphs (empty, isolated vertices, weighted).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import csr_view
from repro.graphs.generators import gbreg
from repro.graphs.graph import Graph
from repro.kernels import BACKENDS, kernel_backend, numpy_available
from repro.kernels.gains import cut_weight, move_gains, side_weights
from repro.kernels.lfg import fill_block, history, restore_state
from repro.rng import LaggedFibonacciRandom

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


class TestBackendSwitch:
    def test_default_is_array(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_backend() == "array"

    def test_explicit_names(self, monkeypatch):
        for name in ("array",) + (("numpy",) if numpy_available() else ()):
            monkeypatch.setenv("REPRO_KERNEL", name)
            assert kernel_backend() == name

    def test_whitespace_and_case_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "  Array ")
        assert kernel_backend() == "array"
        monkeypatch.setenv("REPRO_KERNEL", "")
        assert kernel_backend() == "array"

    def test_unknown_backend_rejected(self, monkeypatch):
        for name in ("cuda", "dict"):
            monkeypatch.setenv("REPRO_KERNEL", name)
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernel_backend()

    def test_numpy_selects_or_degrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        expected = "numpy" if numpy_available() else "array"
        assert kernel_backend() == expected
        # A numpy-free install keeps the config valid by degrading.
        numpy_available.cache_clear()
        monkeypatch.setitem(sys.modules, "numpy", None)
        try:
            assert kernel_backend() == "array"
            assert not numpy_available()
        finally:
            numpy_available.cache_clear()

    def test_backends_tuple_is_the_contract(self):
        assert BACKENDS == ("array", "numpy")


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


@needs_numpy
class TestGainKernels:
    """array-vs-numpy agreement on shapes the matrix graphs don't cover."""

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
            assert move_gains(csr, sides, "numpy") == move_gains(csr, sides, "array")
            assert cut_weight(csr, sides, "numpy") == cut_weight(csr, sides, "array")
            assert side_weights(csr, sides, "numpy") == side_weights(
                csr, sides, "array"
            )

    def test_empty_graph_zeroes(self):
        csr = csr_view(Graph())
        assert move_gains(csr, [], "numpy") == []
        assert cut_weight(csr, [], "numpy") == 0
        assert side_weights(csr, [], "numpy") == (0, 0)

    def test_gain_sign_convention(self):
        # One crossing edge of weight 5: moving either endpoint un-cuts it.
        graph = Graph()
        graph.add_edge("u", "v", 5)
        csr = csr_view(graph)
        for backend in ("array", "numpy"):
            assert move_gains(csr, [0, 1], backend) == [5, 5]
            assert move_gains(csr, [0, 0], backend) == [-5, -5]
            assert cut_weight(csr, [0, 1], backend) == 5
