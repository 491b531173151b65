"""Appendix "Grid graphs" table (N x N grids).

Paper shape: both heuristics are decent on grids (average degree close to
4); compaction still improves cut quality (13% KL / 34% SA on average in
Table 1).  The optimum for an even side N is N (a straight cut).
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import (
    current_scale,
    grid_cases,
    render_paper_table,
    run_workload,
    standard_algorithm_specs,
)


def test_appendix_grid_table(benchmark, save_table):
    scale = current_scale()
    cases = grid_cases(scale)
    algorithms = standard_algorithm_specs(scale)

    rows = run_once(
        benchmark,
        lambda: run_workload(cases, algorithms, rng=102, starts=scale.starts),
    )

    save_table(
        "appendix_grid",
        render_paper_table(f"Grid graphs (optimum = side) @ {scale.name}", rows),
    )

    for row in rows:
        side = row.expected_b
        for name in ("kl", "ckl", "sa", "csa"):
            assert row.cut(name) >= side, f"{name} beat the optimum on {row.label}"
        # Compacted KL stays within a small factor of the straight cut.
        assert row.cut("ckl") <= 4 * side
        assert row.cut("ckl") <= row.cut("kl") * 1.001 + 2
