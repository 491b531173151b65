"""Carried-gain oracle: KL and FM keep exact gains and cuts across passes.

A KL or FM run counts the move gains once and then carries the side and
gain lists from pass to pass, applying each pass's committed prefix with
:func:`~repro.graphs.csr.csr_flip`.  These tests hook the per-pass
function each driver calls and, at entry to and exit from every pass,
compare the carried gains with a fresh :func:`csr_move_gains` recount and
the cut with a fresh :func:`csr_cut_weight` recount.  The entry cuts must
also be the driver's own tracked cut trace.

Graph kinds: unit Gbreg, a twice-contracted Gbreg (merged edge weights and
vertex weights 1-4), string labels, and a hand-built 4-cycle on which
every cross pair is adjacent, so KL's committed pair is adjacent.  FM is
also driven through passes that roll back a suffix and through a
balance-repair pass from a lopsided start.
"""

from __future__ import annotations

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.csr import (
    csr_cut_weight,
    csr_flip,
    csr_move_gains,
    csr_side_weights,
    csr_view,
)
from repro.graphs.generators import gbreg
from repro.graphs.graph import Graph
from repro.partition import fm as fm_module
from repro.partition import kl as kl_module
from repro.partition.bisection import Bisection
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom


def _unit(seed):
    return gbreg(200, 8, 3, LaggedFibonacciRandom(seed)).graph


def _contracted(seed):
    rng = LaggedFibonacciRandom(seed)
    graph = gbreg(400, 8, 3, rng).graph
    for _ in range(2):
        graph = compact(graph, random_maximal_matching(graph, rng)).coarse
    return graph


def _strings(seed):
    graph = _unit(seed)
    relabeled = Graph()
    for v in graph.vertices():
        relabeled.add_vertex(f"v{v:03d}", graph.vertex_weight(v))
    for u, v, w in graph.edges():
        relabeled.add_edge(f"v{u:03d}", f"v{v:03d}", w)
    return relabeled


def _four_cycle(_seed):
    return Graph.from_edges([("a", "b"), ("b", "y"), ("y", "x"), ("x", "a")])


KINDS = {
    "unit": _unit,
    "contracted": _contracted,
    "strings": _strings,
    "four_cycle": _four_cycle,
}
SEEDS = (0, 1, 2)


def _recounted_cut(csr, sides, gains):
    """Assert the carried gains are exact; return the recounted cut."""
    assert gains == csr_move_gains(csr, sides)
    return csr_cut_weight(csr, sides)


class _KLOracle:
    def __init__(self, monkeypatch):
        self.entry_cuts: list[int] = []
        self.moved: list[list[int]] = []
        self.csr = None
        real = kl_module._kl_pass_csr

        def hooked(csr, sides, gains, cut, stats):
            self.csr = csr
            assert _recounted_cut(csr, sides, gains) == cut
            self.entry_cuts.append(cut)
            before = sides.copy()
            gain, swaps = real(csr, sides, gains, cut, stats)
            assert _recounted_cut(csr, sides, gains) == cut - gain
            moved = [i for i, (s, t) in enumerate(zip(before, sides)) if s != t]
            assert len(moved) == 2 * swaps
            self.moved.append(moved)
            return gain, swaps

        monkeypatch.setattr(kl_module, "_kl_pass_csr", hooked)

    def check_run(self, result):
        assert len(self.entry_cuts) == result.passes
        assert self.entry_cuts == result.cut_trace()[: result.passes]


class _FMOracle:
    def __init__(self, monkeypatch):
        self.entry_cuts: list[int] = []
        self.rollbacks = 0
        self.unbalanced_starts = 0
        real = fm_module.fm_pass_csr

        def hooked(csr, sides, gains, strict_tol, loose_tol, stats):
            cut = _recounted_cut(csr, sides, gains)
            self.entry_cuts.append(cut)
            w0, w1 = csr_side_weights(csr, sides)
            if abs(w0 - w1) > strict_tol:
                self.unbalanced_starts += 1
            considered = stats.get("moves_considered", 0)
            gain, kept = real(csr, sides, gains, strict_tol, loose_tol, stats)
            if kept < stats["moves_considered"] - considered:
                self.rollbacks += 1
            assert _recounted_cut(csr, sides, gains) == cut - gain
            return gain, kept

        monkeypatch.setattr(fm_module, "fm_pass_csr", hooked)

    def check_run(self, result):
        assert len(self.entry_cuts) == result.passes
        assert self.entry_cuts == result.cut_trace()[: result.passes]


def test_contracted_kind_has_edge_and_vertex_weights():
    csr = csr_view(_contracted(0))
    assert not csr.unit_edge_weights
    assert len(set(csr.vertex_weight)) >= 3


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_kl_carries_exact_gains(monkeypatch, kind, seed):
    oracle = _KLOracle(monkeypatch)
    result = kernighan_lin(KINDS[kind](seed), rng=seed)
    oracle.check_run(result)
    if kind != "four_cycle":
        assert result.passes >= 2  # the carried state is read at least once


def test_kl_commits_an_adjacent_pair(monkeypatch):
    # All four edges of the 4-cycle a-b-y-x-a are cut: every cross pair is
    # adjacent, and exchanging any one of them halves the cut.
    graph = _four_cycle(0)
    oracle = _KLOracle(monkeypatch)
    result = kernighan_lin(graph, init=Bisection.from_sides(graph, ["a", "y"]))
    oracle.check_run(result)
    assert result.pass_gains == [2]
    a, b = oracle.moved[0]
    assert b in oracle.csr.neighbor_lists()[a]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_fm_carries_exact_gains(monkeypatch, kind, seed):
    oracle = _FMOracle(monkeypatch)
    result = fiduccia_mattheyses(KINDS[kind](seed), rng=seed)
    oracle.check_run(result)
    assert oracle.rollbacks >= 1  # some pass kept fewer moves than it made


@pytest.mark.parametrize("kind", ["unit", "contracted", "strings"])
def test_fm_balance_repair_from_lopsided_start(monkeypatch, kind):
    graph = KINDS[kind](0)
    labels = list(graph.vertices())
    lopsided = Bisection.from_sides(graph, labels[: len(labels) // 4])
    oracle = _FMOracle(monkeypatch)
    result = fiduccia_mattheyses(graph, init=lopsided)
    oracle.check_run(result)
    assert oracle.unbalanced_starts >= 1
    assert result.bisection.is_balanced()


@pytest.mark.parametrize(
    "driver", [kernighan_lin, fiduccia_mattheyses], ids=["kl", "fm"]
)
def test_gains_are_counted_once_per_run(monkeypatch, driver):
    module = kl_module if driver is kernighan_lin else fm_module
    calls = []

    def counting(csr, sides):
        calls.append(len(sides))
        return csr_move_gains(csr, sides)

    monkeypatch.setattr(module, "csr_move_gains", counting)
    result = driver(_unit(0), rng=0)
    assert result.passes >= 2
    assert calls == [200]


@pytest.mark.parametrize("kind", ["unit", "contracted", "strings"])
def test_csr_flip_matches_recount_after_every_flip(kind):
    graph = KINDS[kind](1)
    csr = csr_view(graph)
    rng = LaggedFibonacciRandom(7)
    sides = [rng.randrange(2) for _ in range(csr.num_vertices)]
    gains = csr_move_gains(csr, sides)
    for _ in range(40):
        csr_flip(csr, sides, gains, [rng.randrange(csr.num_vertices)])
        assert gains == csr_move_gains(csr, sides)
    # A batch with repeats and neighbours of one another in one call.
    batch = [rng.randrange(csr.num_vertices) for _ in range(60)]
    csr_flip(csr, sides, gains, batch + batch[:10])
    assert gains == csr_move_gains(csr, sides)
