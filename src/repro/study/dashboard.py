"""ASCII dashboard for finished studies.

Renders a :class:`~repro.study.runner.StudyOutcome` as three blocks: the
per-cell distribution table (mean ± σ, q05/q50/q95, a sparkline of the
exact value counts, and the Weibull best-of-k extrapolation), the
phase-boundary report per family, and the run counters.  Pure string
formatting over the outcome's aggregates — rendering never re-touches
the engine or the service.
"""

from __future__ import annotations

from ..obs.ascii import render_generic_table, sparkline
from .runner import StudyOutcome

__all__ = ["render_study"]


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _distribution_spark(stats) -> str:
    counts = stats.value_counts()
    if not counts:
        return ""
    lo, hi = min(counts), max(counts)
    if hi - lo > 60:  # keep the sparkline terminal-width friendly
        step = (hi - lo) // 60 + 1
        binned: dict[int, int] = {}
        for value, count in counts.items():
            binned[(value - lo) // step] = binned.get((value - lo) // step, 0) + count
        return sparkline([binned.get(i, 0) for i in range(max(binned) + 1)])
    return sparkline([counts.get(v, 0) for v in range(lo, hi + 1)])


def _cells_table(outcome: StudyOutcome) -> str:
    headers = (
        "cell", "runs", "mean", "std", "q05", "q50", "q95",
        "min", "max", "best@100", "dist",
    )
    rows = []
    for cell, stats in zip(outcome.grid.cells, outcome.cell_stats):
        summary = stats.summary()
        from ..obs.accumulator import best_of_k_extrapolation, fit_lower_tail

        fit = fit_lower_tail(stats)
        best100 = best_of_k_extrapolation(fit, ks=(100,))["k=100"] if fit else None
        rows.append(
            (
                cell.label,
                summary.get("count", 0),
                _fmt(summary.get("mean")),
                _fmt(summary.get("std")),
                _fmt(summary.get("q05"), 1),
                _fmt(summary.get("q50"), 1),
                _fmt(summary.get("q95"), 1),
                _fmt(summary.get("min"), 0),
                _fmt(summary.get("max"), 0),
                _fmt(best100, 1),
                _distribution_spark(stats),
            )
        )
    title = (
        f"study {outcome.grid.name!r} — {len(outcome.grid.cells)} cells × "
        f"{outcome.grid.seeds_per_cell} seeds ({outcome.mode})"
    )
    return render_generic_table(headers, rows, title=title)


def _phase_block(outcome: StudyOutcome) -> str:
    report = outcome.aggregates()["phase"]
    lines = ["phase boundaries"]
    for family, label in (("gbreg", "Gbreg q50/b"), ("gnp", "Gnp mean/2n")):
        for sweep in report[family]:
            curve = " ".join(f"{x:g}:{y:.2f}" for x, y in sweep["points"])
            boundary = sweep["boundary"]
            where = f"d* ≈ {boundary:.3f}" if boundary is not None else "no crossing"
            lines.append(
                f"  {label} [{sweep['algorithm']}] "
                f"(threshold {sweep['threshold']:g}): {where}   {curve}"
            )
    lines.append(
        f"  Gnp theoretical critical degree 2 ln 2 = "
        f"{report['gnp_critical_degree']:.3f}"
    )
    return "\n".join(lines)


def render_study(outcome: StudyOutcome) -> str:
    """The full dashboard for one finished study."""
    counters = (
        f"runs={outcome.grid.total_runs}  failed={outcome.failed_requests}  "
        f"cache_hits={outcome.cache_hits}  "
        f"engine_seconds={outcome.engine_seconds:.2f}"
    )
    return "\n\n".join([_cells_table(outcome), _phase_block(outcome), counters])
