"""Appendix ``Gbreg(2n, b, 3)`` and ``Gbreg(2n, b, 4)`` tables.

These are the paper's centerpiece tables:

* degree 3: plain KL and SA find bisections "twenty to fifty times larger
  than the expected bisections"; compaction improves both by >= 90%, and
  CKL is ~3x faster than KL, ~10x faster than SA;
* degree 4: "the expected bisection was always found" — compaction
  changes nothing but costs little.
"""

from __future__ import annotations

from statistics import mean

import pytest
from conftest import run_once

from repro.bench import (
    aggregate_rows,
    current_scale,
    cut_improvement_percent,
    cut_ratio,
    gbreg_cases,
    render_paper_table,
    run_workload,
    standard_algorithm_specs,
)


@pytest.mark.parametrize("degree", [3, 4])
def test_appendix_gbreg_table(benchmark, save_table, degree):
    scale = current_scale()
    cases = gbreg_cases(scale, degree)
    algorithms = standard_algorithm_specs(scale)

    rows = run_once(
        benchmark,
        lambda: run_workload(cases, algorithms, rng=110 + degree, starts=scale.starts),
    )

    save_table(
        f"appendix_gbreg_d{degree}",
        render_paper_table(f"Gbreg(2n, b, {degree}) @ {scale.name}", rows),
    )

    rows = aggregate_rows(rows)
    nonzero = [r for r in rows if r.expected_b and r.expected_b > 0]

    if degree == 3:
        # Plain KL misses the planted bisection by a large factor...
        kl_ratios = [cut_ratio(r.cut("kl"), r.expected_b) for r in nonzero]
        assert mean(kl_ratios) > 2.0, f"KL unexpectedly strong: {kl_ratios}"
        # ...and compaction recovers most of the gap (paper: >= 90%).
        improvements = [
            cut_improvement_percent(r.cut("kl"), r.cut("ckl")) for r in nonzero
        ]
        assert mean(improvements) >= 50.0, f"CKL improvement too small: {improvements}"
        # CKL lands close to the planted width.
        for r in nonzero:
            assert cut_ratio(r.cut("ckl"), r.expected_b) <= 4.0
    else:
        # Degree 4: the planted bisection is (essentially) always found.
        for r in nonzero:
            assert cut_ratio(r.cut("ckl"), r.expected_b) <= 2.0
            assert cut_ratio(r.cut("kl"), r.expected_b) <= 3.0
