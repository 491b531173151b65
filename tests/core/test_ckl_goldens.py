"""Frozen results of the compaction family and of the plain heuristics.

Every run is seeded and every step is deterministic, so each
algorithm x graph x seed cell has exactly one right answer.  The answers
live in ``ckl_goldens.json`` next to this file; a change to matching,
contraction, a KL/FM/SA kernel or projection that moves any of them
fails here, with the cell as the witness.

Algorithms: ``ckl``, ``csa``, ``coarse_only``, ``multilevel`` and
``sa_swap`` (SA's swap neighbourhood, short schedule) on all three
graphs; plain ``kl``, ``fm`` (one pass) and ``sa`` (short schedule) on the
two uncontracted graphs.

Recorded per run:

* ``cut`` — the final cut weight;
* ``side0_sha256`` — SHA-256 of the sorted ``vertex_token``s on side 0,
  one per line;
* ``trace`` — the final stage's pass gains for ``ckl`` (KL on G) and
  ``coarse_only`` (KL on G'), the per-level cuts for ``multilevel``
  (three levels, one-pass FM refiner), and ``[moves_attempted, moves_accepted]`` of the
  final SA stage for ``csa`` (short schedule); the pass gains for ``kl``
  and ``fm``, and ``[moves_attempted, moves_accepted]`` for ``sa`` and
  ``sa_swap``.

The ``contracted2`` graph is Gbreg(2000,16,3) contracted twice, so it
carries vertex weights 1-4 (three or more KL weight classes) and merged
edge weights.

``pipeline_goldens.json`` pins ``multilevel`` at its default depth and
refiner the same way (per-level cuts) on a Gbreg(500) graph, where the
``coarsest_size`` stop fires, and on ``star_graph(40)``, where the 5%
shrink stop fires.

``KL_SELECTION_COUNTERS`` pins plain KL's selection counters
(``selections``, ``stale_pops``, ``candidates``, ``prune_hits``) on the
gbreg and gnp graphs, seed 0.  They live in this file; the regeneration
below leaves them alone.

Regenerate both files (only for a change that is meant to move results,
and say why) with::

    PYTHONPATH=src python tests/core/test_ckl_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache, partial
from pathlib import Path

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.core.multilevel import multilevel_bisection
from repro.core.pipeline import ckl, coarse_only_bisection, csa
from repro.graphs.generators import gbreg, gnp_with_degree, star_graph
from repro.graphs.graph import vertex_token
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition import kl as kl_module
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom

GOLDEN_PATH = Path(__file__).with_name("ckl_goldens.json")
PIPELINE_GOLDEN_PATH = Path(__file__).with_name("pipeline_goldens.json")
SEEDS = (0, 1, 2)
SHORT_SCHEDULE = AnnealingSchedule(size_factor=1, max_temperatures=4)
# Three levels of one-pass FM keep the file inside its ~3 s budget (FM on
# the Gnp hierarchy is slow); the FM kernel still reads every level's G'.
ONE_PASS_FM = partial(fiduccia_mattheyses, max_passes=1)
MAX_LEVELS = 3


def _gbreg():
    return gbreg(2000, 16, 3, LaggedFibonacciRandom(1)).graph


def _gnp():
    return gnp_with_degree(2000, 2.5, LaggedFibonacciRandom(2))


def _contracted2():
    rng = LaggedFibonacciRandom(3)
    graph = gbreg(2000, 16, 3, rng).graph
    for _ in range(2):
        compaction = compact(graph, random_maximal_matching(graph, rng))
        compaction.validate()
        graph = compaction.coarse
    return graph


GRAPHS = {"gbreg": _gbreg, "gnp": _gnp, "contracted2": _contracted2}
STOP_GRAPHS = {
    "gbreg500": lambda: gbreg(500, 8, 3, LaggedFibonacciRandom(6)).graph,
    "star40": lambda: star_graph(40),
}


@lru_cache(maxsize=None)
def _graph(name):
    return {**GRAPHS, **STOP_GRAPHS}[name]()


def _run_ckl(graph, seed):
    result = ckl(graph, rng=seed)
    result.compaction.validate()
    return result.bisection, result.final_result.pass_gains


def _run_csa(graph, seed):
    result = csa(graph, rng=seed, schedule=SHORT_SCHEDULE, record_trace=False)
    result.compaction.validate()
    final = result.final_result
    return result.bisection, [final.moves_attempted, final.moves_accepted]


def _run_coarse_only(graph, seed):
    result = coarse_only_bisection(graph, kernighan_lin, rng=seed)
    result.compaction.validate()
    return result.bisection, result.coarse_result.pass_gains


def _run_multilevel(graph, seed):
    result = multilevel_bisection(
        graph, rng=seed, max_levels=MAX_LEVELS, refiner=ONE_PASS_FM
    )
    return result.bisection, result.level_cuts


def _run_multilevel_default(graph, seed):
    result = multilevel_bisection(graph, rng=seed)
    return result.bisection, result.level_cuts


def _run_kl(graph, seed):
    result = kernighan_lin(graph, rng=seed)
    return result.bisection, result.pass_gains


def _run_fm(graph, seed):
    result = ONE_PASS_FM(graph, rng=seed)
    return result.bisection, result.pass_gains


def _run_sa(graph, seed):
    result = simulated_annealing(
        graph, rng=seed, schedule=SHORT_SCHEDULE, record_trace=False
    )
    return result.bisection, [result.moves_attempted, result.moves_accepted]


def _run_sa_swap(graph, seed):
    result = simulated_annealing(
        graph, rng=seed, schedule=SHORT_SCHEDULE, neighborhood="swap",
        record_trace=False,
    )
    return result.bisection, [result.moves_attempted, result.moves_accepted]


ALGORITHMS = {
    "ckl": _run_ckl,
    "csa": _run_csa,
    "coarse_only": _run_coarse_only,
    "multilevel": _run_multilevel,
    "kl": _run_kl,
    "fm": _run_fm,
    "sa": _run_sa,
    "sa_swap": _run_sa_swap,
}
PIPELINE_ALGORITHMS = {"multilevel_default": _run_multilevel_default}
# The plain heuristics pin the kernels themselves; the contracted graph
# adds nothing the compaction family does not already cover there.
PLAIN = {"kl", "fm", "sa"}
# Plain KL's selection counters (seed 0), summed over all its passes.  They
# never steer a decision, but they are deterministic per seed, so a kernel
# change that keeps every pair yet does different work shows up here.  A
# pass stops selecting once no later prefix can beat its best one, so
# ``selections`` falls short of |V|/2 per pass.
KL_SELECTION_COUNTERS = {
    "gbreg": {"selections": 7544, "stale_pops": 9872, "candidates": 15096, "prune_hits": 7537},
    "gnp": {"selections": 3639, "stale_pops": 2286, "candidates": 7279, "prune_hits": 3638},
}


def _record(algorithm, graph_name, seed):
    run = {**ALGORITHMS, **PIPELINE_ALGORITHMS}[algorithm]
    bisection, trace = run(_graph(graph_name), seed)
    side0 = sorted(
        vertex_token(v) for v, side in bisection.assignment().items() if side == 0
    )
    digest = hashlib.sha256("\n".join(side0).encode("utf-8")).hexdigest()
    return {"cut": bisection.cut, "side0_sha256": digest, "trace": list(trace)}


def _cell(algorithm, graph_name, seed):
    return f"{algorithm}/{graph_name}/{seed}"


CELLS = [
    (algorithm, graph_name, seed)
    for algorithm in ALGORITHMS
    for graph_name in GRAPHS
    if not (algorithm in PLAIN and graph_name == "contracted2")
    for seed in SEEDS
]
PIPELINE_CELLS = [
    (algorithm, graph_name, seed)
    for algorithm in PIPELINE_ALGORITHMS
    for graph_name in STOP_GRAPHS
    for seed in SEEDS
]
GOLDEN_FILES = {GOLDEN_PATH: CELLS, PIPELINE_GOLDEN_PATH: PIPELINE_CELLS}


@lru_cache(maxsize=None)
def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _goldens():
    return {**_load(GOLDEN_PATH), **_load(PIPELINE_GOLDEN_PATH)}


def test_golden_file_covers_every_cell():
    assert sorted(_load(GOLDEN_PATH)) == sorted(_cell(*cell) for cell in CELLS)


def test_pipeline_golden_file_covers_every_cell():
    assert sorted(_load(PIPELINE_GOLDEN_PATH)) == sorted(
        _cell(*cell) for cell in PIPELINE_CELLS
    )


def test_contracted2_has_three_or_more_weight_classes():
    graph = _graph("contracted2")
    weights = {graph.vertex_weight(v) for v in graph.vertices()}
    assert len(weights) >= 3
    assert weights <= {1, 2, 3, 4}


def test_multilevel_stop_rules_fire():
    # gbreg500 stops on coarsest_size (32); star40 stops on the 5% shrink
    # rule, since one matching on a star contracts a single pair.
    deep = multilevel_bisection(_graph("gbreg500"), rng=0)
    assert deep.levels > 2 and deep.level_sizes[0] <= 32
    star = multilevel_bisection(_graph("star40"), rng=0)
    assert star.levels == 1 and star.level_sizes == [41]


@pytest.mark.parametrize("graph_name", sorted(KL_SELECTION_COUNTERS))
def test_kl_selection_counters(monkeypatch, graph_name):
    seen = []
    kl_pass_csr = kl_module._kl_pass_csr

    def recording_pass(csr, sides, gains, cut, stats):
        seen.append(stats)
        return kl_pass_csr(csr, sides, gains, cut, stats)

    monkeypatch.setattr(kl_module, "_kl_pass_csr", recording_pass)
    kernighan_lin(_graph(graph_name), rng=0)
    assert seen[0] == KL_SELECTION_COUNTERS[graph_name]


@pytest.mark.parametrize("algorithm,graph_name,seed", CELLS + PIPELINE_CELLS)
def test_matches_golden(algorithm, graph_name, seed):
    assert _record(algorithm, graph_name, seed) == _goldens()[
        _cell(algorithm, graph_name, seed)
    ]


if __name__ == "__main__":
    for path, cells in GOLDEN_FILES.items():
        lines = [
            f"  {json.dumps(_cell(*cell))}: {json.dumps(_record(*cell), sort_keys=True)}"
            for cell in cells
        ]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(lines)} cells to {path}")
