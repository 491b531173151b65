"""Table 1: average compaction improvement on special graphs.

Paper values (best of two starts, averaged over sizes 100-5000):

    Graph type   | KL improvement | SA improvement
    grid         | 13%            | 34%
    ladder       | 12%            | 24%
    binary tree  | 56%            | 17%

We regenerate the same summary: for each family, the mean cut-size
improvement compaction gives each base algorithm.  The asserted shape is
modest — compaction must not *hurt* on average — because at small scale
both plain algorithms sometimes already find the optimum (improvement 0).
"""

from __future__ import annotations

from statistics import mean

from conftest import run_once

from repro.bench import (
    btree_cases,
    current_scale,
    cut_improvement_percent,
    grid_cases,
    ladder_cases,
    render_generic_table,
    run_workload,
    standard_algorithm_specs,
)


def _family_improvements(cases, algorithms, scale, seed):
    rows = run_workload(cases, algorithms, rng=seed, starts=scale.starts)
    kl_improvements = [
        cut_improvement_percent(r.cut("kl"), r.cut("ckl")) for r in rows
    ]
    sa_improvements = [
        cut_improvement_percent(r.cut("sa"), r.cut("csa")) for r in rows
    ]
    return mean(kl_improvements), mean(sa_improvements)


def test_table1_special_graphs(benchmark, save_table):
    scale = current_scale()
    algorithms = standard_algorithm_specs(scale)
    families = {
        "grid": grid_cases(scale),
        "ladder": ladder_cases(scale),
        "binary tree": btree_cases(scale),
    }

    def experiment():
        return {
            name: _family_improvements(cases, algorithms, scale, seed)
            for seed, (name, cases) in enumerate(families.items())
        }

    summary = run_once(benchmark, experiment)

    table = render_generic_table(
        ["graph type", "KL improvement %", "SA improvement %"],
        [
            [name, f"{kl_imp:.0f}", f"{sa_imp:.0f}"]
            for name, (kl_imp, sa_imp) in summary.items()
        ],
        title=f"Table 1 (paper: grid 13/34, ladder 12/24, btree 56/17) @ {scale.name}",
    )
    save_table("table1_special", table)

    # Shape: compaction never hurts a family on average (paper: all
    # improvements positive, 12-56%).
    for name, (kl_imp, sa_imp) in summary.items():
        assert kl_imp >= 0.0, f"CKL regressed on {name}: {kl_imp:.1f}%"
        assert sa_imp >= -10.0, f"CSA badly regressed on {name}: {sa_imp:.1f}%"
    # Binary trees are where KL gains most in the paper (56%).
    assert summary["binary tree"][0] >= summary["ladder"][0] - 15.0
