"""Kernel-backend equivalence matrix (dict / array / numpy).

The CSR kernels promise *bitwise identical* behaviour to the dict
reference kernels: same cuts, same assignments, same pass gains and
temperature traces, from the same seed.  This matrix runs every
partition algorithm under each ``REPRO_KERNEL`` backend across graph
families (regular, sparse random, weighted/contracted, string labels)
and seeds, and compares the full result objects.  A second matrix runs
the default backend and the dict reference on one graph object, so the
dict run sees the CSR the default run compiled and cached.  A third
holds instrumentation (``REPRO_OBS``) to the same standard.
"""

from __future__ import annotations

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.core.pipeline import ckl, csa
from repro.graphs.generators import gbreg, gnp_with_degree
from repro.graphs.graph import Graph
from repro.kernels import numpy_available
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom

SCHEDULE = AnnealingSchedule(size_factor=2, max_temperatures=60)
BACKENDS = ("dict", "array") + (("numpy",) if numpy_available() else ())


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


def _run_obs_both(monkeypatch, build, seed, run):
    """Run ``run(graph, seed)`` instrumented (REPRO_OBS=1), then bare."""
    monkeypatch.setenv("REPRO_OBS", "1")
    on_result = run(build(seed), seed)
    monkeypatch.setenv("REPRO_OBS", "0")
    off_result = run(build(seed), seed)
    return on_result, off_result


def _assert_bisections_equal(a, b):
    assert a.cut == b.cut
    assert a.assignment() == b.assignment()


def _assert_kl_like_equal(a, b):
    _assert_bisections_equal(a.bisection, b.bisection)
    assert a.initial_cut == b.initial_cut
    assert a.passes == b.passes
    assert a.pass_gains == b.pass_gains


def _assert_sa_equal(a, b):
    _assert_bisections_equal(a.bisection, b.bisection)
    assert a.initial_cut == b.initial_cut
    assert a.temperatures == b.temperatures
    assert a.moves_attempted == b.moves_attempted
    assert a.moves_accepted == b.moves_accepted
    assert a.initial_temperature == b.initial_temperature
    assert a.final_temperature == b.final_temperature
    assert a.temperature_trace == b.temperature_trace


def _run_backends(monkeypatch, build, seed, run):
    """Run ``run(graph, seed)`` once per kernel backend, in BACKENDS order."""
    results = []
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_KERNEL", backend)
        results.append(run(build(seed), seed))
    return results


def _run_default_then_dict(monkeypatch, build, seed, run):
    """Run ``run`` with ``REPRO_KERNEL`` unset, then under ``dict``.

    Both runs share one graph object, so the dict run starts with the
    CSR snapshot the default run compiled already cached on the graph.
    """
    graph = build(seed)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    default_result = run(graph, seed)
    monkeypatch.setenv("REPRO_KERNEL", "dict")
    dict_result = run(graph, seed)
    return default_result, dict_result


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestEquivalenceMatrix:
    """The default backend vs the dict reference on one shared graph.

    A CSR left cached on the graph by an earlier run must not change
    what the dict kernels decide, and the unset ``REPRO_KERNEL`` default
    must give the reference answer.
    """

    def test_kl(self, monkeypatch, family, seed):
        c, d = _run_default_then_dict(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: kernighan_lin(g, rng=s),
        )
        _assert_kl_like_equal(d, c)
        assert d.swaps == c.swaps

    def test_fm(self, monkeypatch, family, seed):
        c, d = _run_default_then_dict(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: fiduccia_mattheyses(g, rng=s),
        )
        _assert_kl_like_equal(d, c)
        assert d.moves == c.moves

    def test_sa(self, monkeypatch, family, seed):
        c, d = _run_default_then_dict(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        )
        _assert_sa_equal(d, c)

    def test_ckl(self, monkeypatch, family, seed):
        c, d = _run_default_then_dict(
            monkeypatch, FAMILIES[family], seed, lambda g, s: ckl(g, rng=s)
        )
        _assert_bisections_equal(d.bisection, c.bisection)
        assert d.projected_cut == c.projected_cut
        _assert_kl_like_equal(d.coarse_result, c.coarse_result)
        _assert_kl_like_equal(d.final_result, c.final_result)

    def test_csa(self, monkeypatch, family, seed):
        c, d = _run_default_then_dict(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: csa(g, rng=s, schedule=SCHEDULE),
        )
        _assert_bisections_equal(d.bisection, c.bisection)
        assert d.projected_cut == c.projected_cut
        _assert_sa_equal(d.coarse_result, c.coarse_result)
        _assert_sa_equal(d.final_result, c.final_result)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestKernelBackendMatrix:
    """dict / array / numpy kernel backends: one answer, N engines.

    ``REPRO_KERNEL`` picks the backend explicitly; every backend must
    agree on the full result object, counters and traces included.
    """

    def test_kl(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: kernighan_lin(g, rng=s),
        )
        for other in rest:
            _assert_kl_like_equal(first, other)
            assert first.swaps == other.swaps

    def test_fm(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: fiduccia_mattheyses(g, rng=s),
        )
        for other in rest:
            _assert_kl_like_equal(first, other)
            assert first.moves == other.moves

    def test_sa(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        )
        for other in rest:
            _assert_sa_equal(first, other)

    def test_ckl(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed, lambda g, s: ckl(g, rng=s)
        )
        for other in rest:
            _assert_bisections_equal(first.bisection, other.bisection)
            assert first.projected_cut == other.projected_cut
            _assert_kl_like_equal(first.coarse_result, other.coarse_result)
            _assert_kl_like_equal(first.final_result, other.final_result)

    def test_csa(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: csa(g, rng=s, schedule=SCHEDULE),
        )
        for other in rest:
            _assert_bisections_equal(first.bisection, other.bisection)
            assert first.projected_cut == other.projected_cut
            _assert_sa_equal(first.coarse_result, other.coarse_result)
            _assert_sa_equal(first.final_result, other.final_result)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestObsEquivalenceMatrix:
    """REPRO_OBS=1 vs REPRO_OBS=0: instrumentation must not perturb results.

    The observability layer (spans, counters, histograms) promises to be
    decision-free — no RNG draws, no iteration reorder — so every result
    object must match seed-for-seed with instrumentation on and off.
    """

    def test_kl(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: kernighan_lin(g, rng=s),
        )
        _assert_kl_like_equal(on, off)
        assert on.swaps == off.swaps

    def test_fm(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: fiduccia_mattheyses(g, rng=s),
        )
        _assert_kl_like_equal(on, off)
        assert on.moves == off.moves

    def test_sa(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        )
        _assert_sa_equal(on, off)

    def test_ckl(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed, lambda g, s: ckl(g, rng=s)
        )
        _assert_bisections_equal(on.bisection, off.bisection)
        assert on.projected_cut == off.projected_cut
        _assert_kl_like_equal(on.coarse_result, off.coarse_result)
        _assert_kl_like_equal(on.final_result, off.final_result)

    def test_csa(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: csa(g, rng=s, schedule=SCHEDULE),
        )
        _assert_bisections_equal(on.bisection, off.bisection)
        assert on.projected_cut == off.projected_cut
        _assert_sa_equal(on.coarse_result, off.coarse_result)
        _assert_sa_equal(on.final_result, off.final_result)


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

    def test_sa_record_trace_off_dict_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "dict")
        result = simulated_annealing(
            _gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False
        )
        assert result.temperature_trace == []

    def test_csa_forwards_record_trace(self):
        result = csa(_gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False)
        assert result.coarse_result.temperature_trace == []
        assert result.final_result.temperature_trace == []
