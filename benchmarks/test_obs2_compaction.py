"""Observation 2: compaction improves small-degree graphs in time AND quality.

Paper: "In graphs from Gbreg(5000, b, 3) the smallest improvement
compaction provided was over 90 percent. ... Compacted Kernighan-Lin was
three times faster than the standard Kernighan-Lin algorithm and ten
times faster than simulated annealing on graphs from Gbreg(5000, b, 3)."

The quality shape is robust at any scale; the *speed* shape (CKL faster
than KL) emerges with size because compaction converges in fewer, cheaper
passes — we assert it only loosely at reduced scale and report the
measured ratios for EXPERIMENTS.md.
"""

from __future__ import annotations

from statistics import mean

from conftest import run_once

from repro.bench import (
    aggregate_rows,
    current_scale,
    cut_improvement_percent,
    gbreg_cases,
    render_generic_table,
    run_workload,
    standard_algorithm_specs,
)


def test_obs2_compaction_effect(benchmark, save_table):
    scale = current_scale()
    algorithms = standard_algorithm_specs(scale)
    cases = gbreg_cases(scale, 3)

    rows = run_once(
        benchmark,
        lambda: aggregate_rows(
            run_workload(cases, algorithms, rng=140, starts=scale.starts)
        ),
    )

    table_rows = []
    kl_improvements = []
    speed_vs_kl = []
    speed_vs_sa = []
    for row in rows:
        improvement = cut_improvement_percent(row.cut("kl"), row.cut("ckl"))
        kl_improvements.append(improvement)
        speed_vs_kl.append(row.seconds("kl") / max(row.seconds("ckl"), 1e-9))
        speed_vs_sa.append(row.seconds("sa") / max(row.seconds("ckl"), 1e-9))
        table_rows.append(
            [
                row.label,
                f"{row.cut('kl'):g}",
                f"{row.cut('ckl'):g}",
                f"{improvement:.1f}",
                f"{speed_vs_kl[-1]:.2f}",
                f"{speed_vs_sa[-1]:.2f}",
            ]
        )

    save_table(
        "obs2_compaction",
        render_generic_table(
            ["graph", "bkl", "bckl", "improvement %", "KL/CKL time", "SA/CKL time"],
            table_rows,
            title=(
                f"Observation 2 on Gbreg(2n, b, 3) @ {scale.name} "
                "(paper: >=90% improvement, CKL 3x faster than KL, 10x than SA)"
            ),
        ),
    )

    # Quality: large mean improvement (paper: >= 90% at 5000 vertices).
    assert mean(kl_improvements) >= 50.0, kl_improvements
    # Speed: CKL must be far cheaper than SA, and not drastically slower
    # than plain KL (at paper scale it is strictly faster).
    assert mean(speed_vs_sa) > 1.5, speed_vs_sa
    assert mean(speed_vs_kl) > 0.4, speed_vs_kl
