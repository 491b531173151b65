"""Oracle bench: families with mathematically known bisection widths.

Hypercubes (width ``2^(d-1)``), even tori (``2 * min(r, c)``), even-rung
ladders (2), even-sided grids (side), and even cycles (2) have exact
known widths.  This bench runs CKL and multilevel on each and reports the
achieved/optimal ratio — a calibration of heuristic quality that needs no
exhaustive search.  Everything must be >= the known width (else the
implementation is broken), and the compaction family should land within a
small factor.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import best_of_starts, current_scale, render_generic_table
from repro.engine import AlgorithmSpec
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    hypercube_graph,
    ladder_graph,
    torus_graph,
)
from repro.rng import LaggedFibonacciRandom, spawn

ORACLES = [
    ("hypercube(8)", lambda: hypercube_graph(8), 128),
    ("torus(12x12)", lambda: torus_graph(12, 12), 24),
    ("ladder(128)", lambda: ladder_graph(128), 2),
    ("grid(16x16)", lambda: grid_graph(16, 16), 16),
    ("cycle(256)", lambda: cycle_graph(256), 2),
]


def test_known_width_oracles(benchmark, save_table):
    scale = current_scale()

    def experiment():
        root = LaggedFibonacciRandom(281)
        rows = []
        for i, (label, build, width) in enumerate(ORACLES):
            graph = build()
            ckl_cut = best_of_starts(
                graph, AlgorithmSpec.make("ckl"), rng=spawn(root, 2 * i), starts=2
            ).cut
            ml_cut = best_of_starts(
                graph,
                AlgorithmSpec.make("multilevel"),
                rng=spawn(root, 2 * i + 1),
                starts=2,
            ).cut
            rows.append((label, width, ckl_cut, ml_cut))
        return rows

    rows = run_once(benchmark, experiment)

    save_table(
        "known_width_oracles",
        render_generic_table(
            ["graph", "true width", "CKL", "multilevel", "ML ratio"],
            [
                [label, width, ckl_cut, ml_cut, f"{ml_cut / width:.2f}"]
                for label, width, ckl_cut, ml_cut in rows
            ],
            title=f"Known-bisection-width oracles @ {scale.name}",
        ),
    )

    for label, width, ckl_cut, ml_cut in rows:
        assert ckl_cut >= width, f"{label}: CKL beat a proven optimum?!"
        assert ml_cut >= width, f"{label}: multilevel beat a proven optimum?!"
        # The multilevel family should land within 2x of optimal on these
        # highly structured families.
        assert ml_cut <= 2 * width + 2, (label, ml_cut, width)
