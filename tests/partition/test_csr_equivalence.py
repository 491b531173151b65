"""Equivalence matrices: one seed, one answer, however the run is set up.

Every partition algorithm runs across graph families (regular, sparse
random, weighted/contracted, string labels) and seeds, and the full
result objects are compared: cuts, assignments, pass gains and
temperature traces.

* The first matrix runs twice on one graph object, so the second run
  starts from the CSR and list mirrors the first run cached.
* The second runs on the graph and on its twin attached from a
  shared-memory segment, whose CSR buffers are ``memoryview`` windows
  into the mapping rather than ``array('q')``: the kernels must make the
  same decisions on either backing, as the engine's workers rely on.
* The third holds instrumentation (``REPRO_OBS``) to the same standard.
"""

from __future__ import annotations

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.core.pipeline import ckl, csa
from repro.graphs.generators import gbreg, gnp_with_degree
from repro.graphs.graph import Graph
from repro.graphs.shm import SharedGraphSegment
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom

SCHEDULE = AnnealingSchedule(size_factor=2, max_temperatures=60)


def _gbreg_graph(seed):
    return gbreg(40, 4, 3, LaggedFibonacciRandom(seed)).graph


def _gnp_graph(seed):
    return gnp_with_degree(40, 2.5, LaggedFibonacciRandom(seed))


def _contracted_graph(seed):
    """A weighted graph (supervertex weights 2) from one compaction round."""
    rng = LaggedFibonacciRandom(seed)
    graph = gbreg(40, 4, 3, rng).graph
    return compact(graph, random_maximal_matching(graph, rng)).coarse


def _string_label_graph(seed):
    graph = _gbreg_graph(seed)
    relabeled = Graph()
    for v in graph.vertices():
        relabeled.add_vertex(f"v{v:03d}", graph.vertex_weight(v))
    for u, v, w in graph.edges():
        relabeled.add_edge(f"v{u:03d}", f"v{v:03d}", w)
    return relabeled


FAMILIES = {
    "gbreg": _gbreg_graph,
    "gnp": _gnp_graph,
    "contracted": _contracted_graph,
    "strings": _string_label_graph,
}
SEEDS = (0, 1, 2)


def _assert_bisections_equal(a, b):
    assert a.cut == b.cut
    assert a.assignment() == b.assignment()


def _assert_kl_like_equal(a, b):
    _assert_bisections_equal(a.bisection, b.bisection)
    assert a.initial_cut == b.initial_cut
    assert a.passes == b.passes
    assert a.pass_gains == b.pass_gains


def _assert_kl_equal(a, b):
    _assert_kl_like_equal(a, b)
    assert a.swaps == b.swaps


def _assert_fm_equal(a, b):
    _assert_kl_like_equal(a, b)
    assert a.moves == b.moves


def _assert_sa_equal(a, b):
    _assert_bisections_equal(a.bisection, b.bisection)
    assert a.initial_cut == b.initial_cut
    assert a.temperatures == b.temperatures
    assert a.moves_attempted == b.moves_attempted
    assert a.moves_accepted == b.moves_accepted
    assert a.initial_temperature == b.initial_temperature
    assert a.final_temperature == b.final_temperature
    assert a.temperature_trace == b.temperature_trace


def _pipeline_check(assert_stage_equal):
    def check(a, b):
        _assert_bisections_equal(a.bisection, b.bisection)
        assert a.projected_cut == b.projected_cut
        assert_stage_equal(a.coarse_result, b.coarse_result)
        assert_stage_equal(a.final_result, b.final_result)

    return check


# algorithm -> (run(graph, seed), assert_equal(a, b))
ALGORITHMS = {
    "kl": (lambda g, s: kernighan_lin(g, rng=s), _assert_kl_equal),
    "fm": (lambda g, s: fiduccia_mattheyses(g, rng=s), _assert_fm_equal),
    "sa": (
        lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        _assert_sa_equal,
    ),
    "ckl": (lambda g, s: ckl(g, rng=s), _pipeline_check(_assert_kl_like_equal)),
    "csa": (
        lambda g, s: csa(g, rng=s, schedule=SCHEDULE),
        _pipeline_check(_assert_sa_equal),
    ),
}


class _Matrix:
    """One test per algorithm; subclasses say how the two runs differ."""

    def check(self, algorithm, family, seed, monkeypatch):
        raise NotImplementedError

    def test_kl(self, family, seed, monkeypatch):
        self.check("kl", family, seed, monkeypatch)

    def test_fm(self, family, seed, monkeypatch):
        self.check("fm", family, seed, monkeypatch)

    def test_sa(self, family, seed, monkeypatch):
        self.check("sa", family, seed, monkeypatch)

    def test_ckl(self, family, seed, monkeypatch):
        self.check("ckl", family, seed, monkeypatch)

    def test_csa(self, family, seed, monkeypatch):
        self.check("csa", family, seed, monkeypatch)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestEquivalenceMatrix(_Matrix):
    """Two runs on one shared graph.

    A CSR and its list mirrors left cached on the graph by an earlier run
    must not steer the next run: the second run must repeat the first.
    """

    def check(self, algorithm, family, seed, monkeypatch):
        run, assert_equal = ALGORITHMS[algorithm]
        graph = FAMILIES[family](seed)
        first = run(graph, seed)
        assert_equal(run(graph, seed), first)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestKernelBackendMatrix(_Matrix):
    """In-process CSR buffers vs a shared-memory twin's: one answer.

    The attached twin's adjacency is rebuilt from the CSR rows and its
    CSR arrays are windows into the segment; every result object must
    match the original graph's, counters and traces included.  The
    comparison runs before the segment closes, since a bisection counts
    its cut lazily from the CSR it was built on.
    """

    def check(self, algorithm, family, seed, monkeypatch):
        run, assert_equal = ALGORITHMS[algorithm]
        graph = FAMILIES[family](seed)
        owner = SharedGraphSegment.create(graph)
        attached = SharedGraphSegment.attach(owner.name)
        try:
            assert_equal(run(graph, seed), run(attached.graph(), seed))
        finally:
            attached.close()
            owner.close()
            owner.unlink()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestObsEquivalenceMatrix(_Matrix):
    """REPRO_OBS=1 vs REPRO_OBS=0: instrumentation must not perturb results.

    The observability layer (spans, counters, histograms) promises to be
    decision-free — no RNG draws, no iteration reorder — so every result
    object must match seed-for-seed with instrumentation on and off.
    """

    def check(self, algorithm, family, seed, monkeypatch):
        run, assert_equal = ALGORITHMS[algorithm]
        monkeypatch.setenv("REPRO_OBS", "1")
        on = run(FAMILIES[family](seed), seed)
        monkeypatch.setenv("REPRO_OBS", "0")
        assert_equal(on, run(FAMILIES[family](seed), seed))


class TestTraceOptOut:
    def test_sa_record_trace_off_same_walk(self):
        """Disabling the trace must not perturb the walk itself."""
        graph = _gbreg_graph(0)
        with_trace = simulated_annealing(graph, rng=0, schedule=SCHEDULE)
        without = simulated_annealing(
            _gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False
        )
        assert without.temperature_trace == []
        assert with_trace.temperature_trace  # default stays on
        assert without.bisection.assignment() == with_trace.bisection.assignment()
        assert without.moves_attempted == with_trace.moves_attempted
        assert without.moves_accepted == with_trace.moves_accepted

    def test_sa_record_trace_off_swap(self):
        """The swap walk honours the opt-out and walks the same either way."""
        with_trace = simulated_annealing(
            _gbreg_graph(0), rng=0, schedule=SCHEDULE, neighborhood="swap"
        )
        without = simulated_annealing(
            _gbreg_graph(0), rng=0, schedule=SCHEDULE, neighborhood="swap",
            record_trace=False,
        )
        assert without.temperature_trace == []
        assert with_trace.temperature_trace
        assert without.bisection.assignment() == with_trace.bisection.assignment()
        assert without.moves_attempted == with_trace.moves_attempted

    def test_csa_forwards_record_trace(self):
        result = csa(_gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False)
        assert result.coarse_result.temperature_trace == []
        assert result.final_result.temperature_trace == []
