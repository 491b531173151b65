"""Observation 1: bisection algorithms improve as average degree increases.

Paper: "on graphs from Gbreg(5000, b, 3) both algorithms without
compaction usually found bisections that were twenty to fifty times
larger than the expected bisections.  But on graphs from Gbreg(5000, b,
4) the expected bisection was always found.  Also, the algorithms usually
ran faster on regular degree 4 graphs" (up to 3x for KL, ~2x for SA,
because fewer passes are needed to converge).
"""

from __future__ import annotations

from statistics import mean

from conftest import run_once

from repro.bench import (
    aggregate_rows,
    current_scale,
    cut_ratio,
    gbreg_cases,
    render_generic_table,
    run_workload,
    standard_algorithm_specs,
)


def test_obs1_degree_effect(benchmark, save_table):
    scale = current_scale()
    algorithms = standard_algorithm_specs(scale)

    def experiment():
        return {
            d: aggregate_rows(
                run_workload(
                    gbreg_cases(scale, d), algorithms, rng=130 + d, starts=scale.starts
                )
            )
            for d in (3, 4)
        }

    by_degree = run_once(benchmark, experiment)

    table_rows = []
    ratios = {3: {"kl": [], "sa": []}, 4: {"kl": [], "sa": []}}
    for d, rows in by_degree.items():
        for row in rows:
            if not row.expected_b:
                continue
            kl_ratio = cut_ratio(row.cut("kl"), row.expected_b)
            sa_ratio = cut_ratio(row.cut("sa"), row.expected_b)
            ratios[d]["kl"].append(kl_ratio)
            ratios[d]["sa"].append(sa_ratio)
            table_rows.append(
                [row.label, row.expected_b, f"{kl_ratio:.1f}", f"{sa_ratio:.1f}"]
            )

    save_table(
        "obs1_degree",
        render_generic_table(
            ["graph", "b", "KL cut / b", "SA cut / b"],
            table_rows,
            title=f"Observation 1: cut quality vs average degree @ {scale.name}",
        ),
    )

    # Degree 4 graphs: planted found (ratio near 1); degree 3: large miss.
    assert mean(ratios[4]["kl"]) <= 2.0
    assert mean(ratios[3]["kl"]) > 2.0 * mean(ratios[4]["kl"])
    assert mean(ratios[4]["sa"]) <= mean(ratios[3]["sa"]) + 1.0
