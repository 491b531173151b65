"""Frozen results of the compaction family and of the plain heuristics.

Every run is seeded and every step is deterministic, so each
algorithm x graph x seed cell has exactly one right answer.  The answers
live in ``ckl_goldens.json`` next to this file; a change to matching,
contraction, a KL/FM/SA kernel or projection that moves any of them
fails here, with the cell as the witness.  The file runs under every
``REPRO_KERNEL`` backend, so the cells also pin cross-backend agreement.

Algorithms: ``ckl``, ``csa``, ``coarse_only`` and ``multilevel`` on all
three graphs; plain ``kl``, ``fm`` (one pass) and ``sa`` (short
schedule) on the two uncontracted graphs.

Recorded per run:

* ``cut`` — the final cut weight;
* ``side0_sha256`` — SHA-256 of the sorted ``vertex_token``s on side 0,
  one per line;
* ``trace`` — the final stage's pass gains for ``ckl`` (KL on G) and
  ``coarse_only`` (KL on G'), the per-level cuts for ``multilevel``
  (three levels, one-pass FM refiner), and ``[moves_attempted, moves_accepted]`` of the
  final SA stage for ``csa`` (short schedule); the pass gains for ``kl``
  and ``fm``, and ``[moves_attempted, moves_accepted]`` for ``sa``.

The ``contracted2`` graph is Gbreg(2000,16,3) contracted twice, so it
carries vertex weights 1-4 (three or more KL weight classes) and merged
edge weights.  Regenerate the file (only for a change that is meant to
move results, and say why) with::

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
from repro.graphs.generators import gbreg, gnp_with_degree
from repro.graphs.graph import vertex_token
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom

GOLDEN_PATH = Path(__file__).with_name("ckl_goldens.json")
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


@lru_cache(maxsize=None)
def _graph(name):
    return GRAPHS[name]()


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


ALGORITHMS = {
    "ckl": _run_ckl,
    "csa": _run_csa,
    "coarse_only": _run_coarse_only,
    "multilevel": _run_multilevel,
    "kl": _run_kl,
    "fm": _run_fm,
    "sa": _run_sa,
}
# The plain heuristics pin the kernels themselves; the contracted graph
# adds nothing the compaction family does not already cover there.
PLAIN = {"kl", "fm", "sa"}


def _record(algorithm, graph_name, seed):
    bisection, trace = ALGORITHMS[algorithm](_graph(graph_name), seed)
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


@lru_cache(maxsize=None)
def _goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_cell():
    assert sorted(_goldens()) == sorted(_cell(*cell) for cell in CELLS)


def test_contracted2_has_three_or_more_weight_classes():
    graph = _graph("contracted2")
    weights = {graph.vertex_weight(v) for v in graph.vertices()}
    assert len(weights) >= 3
    assert weights <= {1, 2, 3, 4}


@pytest.mark.parametrize("algorithm,graph_name,seed", CELLS)
def test_matches_golden(algorithm, graph_name, seed):
    assert _record(algorithm, graph_name, seed) == _goldens()[
        _cell(algorithm, graph_name, seed)
    ]


if __name__ == "__main__":
    lines = [
        f"  {json.dumps(_cell(*cell))}: {json.dumps(_record(*cell), sort_keys=True)}"
        for cell in CELLS
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} cells to {GOLDEN_PATH}")
