"""Appendix ``G2set(2n, pA, pB, b)`` tables at average degree 2.5/3/3.5/4.

Paper shape: same story as Gbreg — at low average degree plain KL/SA
return cuts well above the planted ``b`` and compaction recovers most of
it ("similar significant improvements are also observed for graphs in
G2set(5000, pA, pB, b)") — with the caveat (Section IV) that for sparse
G2set the true minimum bisection is often *below* the planted ``b``, so
cuts smaller than ``b`` are legitimate.
"""

from __future__ import annotations

from statistics import mean

import pytest
from conftest import run_once

from repro.bench import (
    aggregate_rows,
    current_scale,
    cut_improvement_percent,
    g2set_cases,
    render_paper_table,
    run_workload,
    standard_algorithm_specs,
)


@pytest.mark.parametrize("avg_degree", [2.5, 3.0, 3.5, 4.0])
def test_appendix_g2set_table(benchmark, save_table, avg_degree):
    scale = current_scale()
    cases = g2set_cases(scale, avg_degree)
    # SA dominates wall time; run the full quartet only at the sparse
    # degrees where the paper's effect lives, KL-only at degree 4.
    algorithms = standard_algorithm_specs(scale, include_sa=avg_degree < 4.0)

    rows = run_once(
        benchmark,
        lambda: run_workload(
            cases, algorithms, rng=int(avg_degree * 10), starts=scale.starts
        ),
    )

    pairs = (("sa", "csa"), ("kl", "ckl")) if avg_degree < 4.0 else (("kl", "ckl"),)
    save_table(
        f"appendix_g2set_deg{avg_degree}",
        render_paper_table(
            f"G2set(2n, pA, pB, b) avg degree {avg_degree} @ {scale.name}",
            rows,
            base_pairs=pairs,
        ),
    )

    rows = aggregate_rows(rows)
    improvements = [
        cut_improvement_percent(r.cut("kl"), r.cut("ckl"))
        for r in rows
        if r.cut("kl") > 0
    ]
    if avg_degree <= 3.0:
        # Sparse regime: compaction must clearly help KL on average.
        assert mean(improvements) >= 20.0, improvements
    for r in rows:
        # CKL never loses to plain KL by more than noise.
        assert r.cut("ckl") <= r.cut("kl") + 2
