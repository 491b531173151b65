"""Pinned start cuts of the best-of-starts protocol.

Every value here was recorded from the runner and must not move when the
job layer changes: a start's cut depends only on the graph, the
algorithm and the seed :func:`repro.rng.start_seeds` derives for it.
The smoke-scale ``Gbreg(120, b, 3)`` sweep covers the paper's four
procedures through both :func:`best_of_starts` and :func:`run_workload`;
the integration table covers every protocol call in
``tests/test_integration.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import best_of_starts, run_workload
from repro.bench.workloads import _SCALES, gbreg_cases, standard_algorithm_specs
from repro.engine.job import AlgorithmSpec
from repro.graphs.generators import binary_tree, gbreg, gnp_with_degree, ladder_graph
from repro.rng import LaggedFibonacciRandom

SMOKE = _SCALES["smoke"]

#: best_of_starts(case.build(LaggedFibonacciRandom(index)), spec, rng=0, starts=2)
BEST_OF_STARTS_CUTS = {
    "kl": [(2, 28), (14, 26)],
    "ckl": [(2, 2), (18, 6)],
    "sa": [(12, 2), (6, 6)],
    "csa": [(2, 2), (6, 6)],
}

#: run_workload(gbreg_cases(SMOKE, 3), specs, rng=0, starts=2)
RUN_WORKLOAD_CUTS = [
    ("Gbreg(120,2,3)", {"ckl": (24, 2), "csa": (2, 4), "kl": (30, 22), "sa": (2, 2)}),
    ("Gbreg(120,8,3)", {"ckl": (8, 12), "csa": (8, 8), "kl": (26, 30), "sa": (8, 8)}),
]

_INTEGRATION_GRAPHS = {
    "gbreg(300,8,3,1)": lambda: gbreg(300, 8, 3, rng=1).graph,
    "gbreg(300,8,4,1)": lambda: gbreg(300, 8, 4, rng=1).graph,
    "gbreg(300,8,3,3)": lambda: gbreg(300, 8, 3, rng=3).graph,
    "gbreg(200,6,3,5)": lambda: gbreg(200, 6, 3, rng=5).graph,
    "gbreg(120,4,3,11)": lambda: gbreg(120, 4, 3, rng=11).graph,
    "gbreg(120,2,2,14)": lambda: gbreg(120, 2, 2, rng=14).graph,
    "ladder(60)": lambda: ladder_graph(60),
    "ladder(30)": lambda: ladder_graph(30),
    "btree(128)": lambda: binary_tree(128),
    "gnp(300,8.0,11)": lambda: gnp_with_degree(300, 8.0, rng=11),
}

#: (graph, algorithm, rng) -> start cuts with the default two starts;
#: ``sa``/``csa`` run the short schedule of the ``fast_sa_specs`` fixture.
INTEGRATION_CUTS = [
    ("gbreg(300,8,3,1)", "kl", 2, (58, 52)),
    ("gbreg(300,8,4,1)", "kl", 2, (8, 8)),
    ("gbreg(300,8,3,3)", "kl", 4, (62, 60)),
    ("gbreg(300,8,3,3)", "ckl", 4, (8, 10)),
    ("gbreg(200,6,3,5)", "sa", 6, (6, 10)),
    ("gbreg(200,6,3,5)", "csa", 6, (6, 8)),
    ("ladder(60)", "kl", 7, (2, 2)),
    ("ladder(60)", "ckl", 7, (2, 2)),
    ("btree(128)", "kl", 8, (1, 8)),
    ("btree(128)", "ckl", 8, (1, 5)),
    ("gbreg(120,4,3,11)", "kl", 9, (22, 28)),
    ("gbreg(120,4,3,11)", "sa", 9, (24, 20)),
    ("ladder(30)", "sa", 10, (4, 6)),
    ("ladder(30)", "kl", 10, (2, 6)),
    ("gnp(300,8.0,11)", "kl", 13, (297, 298)),
    ("gbreg(120,2,2,14)", "ckl", 15, (2, 2)),
    ("gbreg(120,4,3,11)", "kl", 16, (26, 24)),
    ("gbreg(120,4,3,11)", "ckl", 16, (4, 4)),
]


@pytest.mark.parametrize("name", sorted(BEST_OF_STARTS_CUTS))
def test_best_of_starts_cuts(name):
    spec = standard_algorithm_specs(SMOKE)[name]
    cuts = [
        best_of_starts(case.build(LaggedFibonacciRandom(index)), spec, rng=0, starts=2)
        .start_cuts
        for index, case in enumerate(gbreg_cases(SMOKE, 3))
    ]
    assert cuts == BEST_OF_STARTS_CUTS[name]


def test_run_workload_cuts():
    rows = run_workload(
        gbreg_cases(SMOKE, 3), standard_algorithm_specs(SMOKE), rng=0, starts=2
    )
    assert [
        (row.label, {name: cell.start_cuts for name, cell in row.cells.items()})
        for row in rows
    ] == RUN_WORKLOAD_CUTS


@pytest.mark.parametrize(
    "graph,algorithm,rng,expected",
    INTEGRATION_CUTS,
    ids=[f"{g}-{a}-{r}" for g, a, r, _ in INTEGRATION_CUTS],
)
def test_integration_cuts(graph, algorithm, rng, expected, fast_sa_specs):
    specs = {"kl": AlgorithmSpec.make("kl"), "ckl": AlgorithmSpec.make("ckl")}
    specs.update(fast_sa_specs)
    outcome = best_of_starts(_INTEGRATION_GRAPHS[graph](), specs[algorithm], rng=rng)
    assert outcome.start_cuts == expected
