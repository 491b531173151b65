"""Grand comparison: every bisector in the library on a fixed workload.

Not a paper table — a library-level summary artifact: greedy descent,
KL, CKL, SA, CSA, FM, and multilevel on the same three graphs (sparse
Gbreg, ladder, grid), best of two starts.  The asserted shape is the
library's headline ordering: the compaction/multilevel family is never
worse than its plain counterpart, and everything beats raw greedy on
sparse Gbreg.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import best_of_starts, current_scale, render_generic_table
from repro.engine import AlgorithmSpec
from repro.graphs.generators import gbreg, grid_graph, ladder_graph
from repro.rng import LaggedFibonacciRandom, spawn


def test_baseline_comparison(benchmark, save_table):
    scale = current_scale()
    two_n = min(scale.random_graph_sizes[0], 500)
    size_factor = scale.sa_size_factor

    workload = {
        f"Gbreg({two_n},8,3)": gbreg(two_n, 8, 3, rng=270).graph,
        f"ladder({two_n})": ladder_graph(two_n // 2),
        "grid(22x22)": grid_graph(22, 22),
    }
    algorithms = {
        "greedy": AlgorithmSpec.make("greedy"),
        "kl": AlgorithmSpec.make("kl"),
        "fm": AlgorithmSpec.make("fm"),
        "sa": AlgorithmSpec.make("sa", size_factor=size_factor),
        "ckl": AlgorithmSpec.make("ckl"),
        "csa": AlgorithmSpec.make("csa", size_factor=size_factor),
        "multilevel": AlgorithmSpec.make("multilevel"),
    }

    def experiment():
        root = LaggedFibonacciRandom(271)
        rows = {}
        for i, (label, graph) in enumerate(workload.items()):
            cells = {}
            for j, (name, algorithm) in enumerate(sorted(algorithms.items())):
                cells[name] = best_of_starts(
                    graph, algorithm, rng=spawn(root, 100 * i + j), starts=2
                ).cut
            rows[label] = cells
        return rows

    rows = run_once(benchmark, experiment)

    names = sorted(next(iter(rows.values())).keys())
    save_table(
        "baseline_comparison",
        render_generic_table(
            ["graph", *names],
            [[label, *[cells[n] for n in names]] for label, cells in rows.items()],
            title=f"All bisectors, best of two starts @ {scale.name}",
        ),
    )

    for label, cells in rows.items():
        assert cells["ckl"] <= cells["kl"], label
        assert cells["csa"] <= cells["sa"] + 4, label
        assert cells["multilevel"] <= cells["kl"], label
    sparse = rows[f"Gbreg({two_n},8,3)"]
    assert sparse["ckl"] < sparse["greedy"]
