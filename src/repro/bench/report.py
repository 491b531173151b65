"""One-shot experiment report: every paper table in a single markdown file.

``generate_report`` runs the full workload sweep at the current scale and
renders all tables (plus the Observation summaries) into one markdown
document — the programmatic way to regenerate the data behind
EXPERIMENTS.md.  Exposed on the CLI as ``repro-bisect report``.

All sweeps execute through the :mod:`repro.engine` job engine; pass an
``engine`` configured with ``jobs=N`` to fan cells out across worker
processes and/or a result cache to make regeneration near-free.  The
report ends with a telemetry summary of the engine run.
"""

from __future__ import annotations

import random
from statistics import mean

from ..engine.executor import Engine
from ..engine.telemetry import Timer
from ..rng import resolve_rng, spawn
from .metrics import cut_improvement_percent, cut_ratio
from .runner import run_workload
from .tables import aggregate_rows, render_paper_table
from .workloads import (
    Scale,
    btree_cases,
    g2set_cases,
    gbreg_cases,
    gnp_cases,
    grid_cases,
    ladder_cases,
    standard_algorithm_specs,
)

__all__ = ["generate_report"]


def _fence(text: str) -> str:
    return "```\n" + text + "\n```"


def generate_report(
    scale: Scale,
    rng: random.Random | int | None = None,
    include_sa: bool = True,
    engine: Engine | None = None,
) -> str:
    """Run every table's workload and render one markdown report."""
    rng = resolve_rng(rng)
    engine = engine if engine is not None else Engine()
    algorithms = standard_algorithm_specs(scale, include_sa=include_sa)
    pairs = (("sa", "csa"), ("kl", "ckl")) if include_sa else (("kl", "ckl"),)

    sections: list[str] = [
        "# repro experiment report",
        "",
        f"Scale: **{scale.name}** | graph sizes: {scale.random_graph_sizes} | "
        f"starts: {scale.starts} | SA temperature length: {scale.sa_size_factor}n | "
        f"algorithms: {', '.join(sorted(algorithms))} | "
        f"engine: jobs={engine.jobs}, cache={'on' if engine.cache else 'off'}",
        "",
    ]

    timer = Timer()
    with timer:
        tables = {
            "Gbreg(2n, b, 3) — the headline table": gbreg_cases(scale, 3),
            "Gbreg(2n, b, 4)": gbreg_cases(scale, 4),
            "G2set average degree 2.5": g2set_cases(scale, 2.5),
            "G2set average degree 3.0": g2set_cases(scale, 3.0),
            "G2set average degree 3.5": g2set_cases(scale, 3.5),
            "G2set average degree 4.0": g2set_cases(scale, 4.0),
            "Gnp degree sweep": gnp_cases(scale),
            "Ladder graphs": ladder_cases(scale),
            "Grid graphs": grid_cases(scale),
            "Binary trees": btree_cases(scale),
        }

        degree3_rows = None
        for salt, (title, cases) in enumerate(tables.items()):
            rows = run_workload(
                cases, algorithms, rng=spawn(rng, salt), starts=scale.starts,
                engine=engine,
            )
            sections.append(f"## {title}")
            sections.append("")
            sections.append(_fence(render_paper_table(title, rows, base_pairs=pairs)))
            sections.append("")
            if title.startswith("Gbreg(2n, b, 3)"):
                degree3_rows = aggregate_rows(rows)

    # Observation summary from the headline table.
    if degree3_rows:
        nonzero = [r for r in degree3_rows if r.expected_b]
        ratios = [cut_ratio(r.cut("kl"), r.expected_b) for r in nonzero]
        improvements = [
            cut_improvement_percent(r.cut("kl"), r.cut("ckl")) for r in nonzero
        ]
        sections.append("## Headline summary (Observations 1-2)")
        sections.append("")
        sections.append(
            f"* plain KL cut / planted width on degree-3 Gbreg: "
            f"{', '.join(f'{r:.1f}x' for r in ratios)} "
            f"(paper: 20-50x at 5000 vertices)"
        )
        sections.append(
            f"* compaction improvement for KL: mean {mean(improvements):.1f} % "
            f"(paper: >= 90 %)"
        )
        sections.append("")

    summary = engine.telemetry.summary()
    sections.append("## Engine telemetry")
    sections.append("")
    sections.append(
        f"* jobs: {summary['jobs']} ({summary['cache_hits']} cache hits, "
        f"{summary['executed']} executed, {summary['failed']} failed)"
    )
    sections.append(
        f"* compute time: {summary['compute_seconds']:.1f} s across "
        f"{engine.jobs} worker(s); wall time {timer.seconds:.1f} s"
    )
    sections.append("")
    sections.append(f"_Generated in {timer.seconds:.1f} s._")
    return "\n".join(sections)
