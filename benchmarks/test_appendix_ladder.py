"""Appendix "Ladder graphs" table.

One row per ladder size: cut and time for SA/CSA/KL/CKL plus the paper's
improvement and relative-speedup columns.  Paper shape: plain KL does
poorly on ladders (its classic failure family, Fig. 3), SA does better,
and compaction improves both (12% KL / 24% SA on average).  The true
optimum of every even-rung ladder is 2.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import (
    current_scale,
    ladder_cases,
    render_paper_table,
    run_workload,
    standard_algorithm_specs,
)


def test_appendix_ladder_table(benchmark, save_table):
    scale = current_scale()
    cases = ladder_cases(scale)
    algorithms = standard_algorithm_specs(scale)

    rows = run_once(
        benchmark,
        lambda: run_workload(cases, algorithms, rng=101, starts=scale.starts),
    )

    save_table(
        "appendix_ladder",
        render_paper_table(f"Ladder graphs (optimum 2) @ {scale.name}", rows),
    )

    for row in rows:
        # Valid cuts: nothing can beat the optimum of 2.
        for name in ("kl", "ckl", "sa", "csa"):
            assert row.cut(name) >= 2, f"{name} beat the optimum on {row.label}"
        # Compaction never hurts KL on ladders.
        assert row.cut("ckl") <= row.cut("kl")
        # CKL should land near the optimum (paper: small cuts at all sizes).
        assert row.cut("ckl") <= 8
