"""Experiment harness: protocol runner, metrics, table rendering, workloads."""

from .ascii import histogram, horizontal_bars, sparkline
from .analysis import (
    PairedComparison,
    Summary,
    consistency_summary,
    paired_comparison,
    summarize,
    trial_spread,
)
from .report import generate_report
from .metrics import (
    cut_improvement_percent,
    cut_ratio,
    geometric_mean,
    relative_speedup_percent,
)
from .runner import BestOfStarts, RowResult, best_of_starts, run_workload
from .tables import aggregate_rows, render_generic_table, render_paper_table
from .workloads import (
    Scale,
    WorkloadCase,
    btree_cases,
    current_scale,
    g2set_cases,
    gbreg_cases,
    gnp_cases,
    grid_cases,
    ladder_cases,
    netlist_algorithm_specs,
    netlist_cases,
    standard_algorithm_specs,
)

__all__ = [
    "cut_improvement_percent",
    "relative_speedup_percent",
    "cut_ratio",
    "geometric_mean",
    "best_of_starts",
    "run_workload",
    "BestOfStarts",
    "RowResult",
    "render_generic_table",
    "render_paper_table",
    "aggregate_rows",
    "Scale",
    "WorkloadCase",
    "current_scale",
    "standard_algorithm_specs",
    "netlist_algorithm_specs",
    "netlist_cases",
    "gbreg_cases",
    "g2set_cases",
    "gnp_cases",
    "ladder_cases",
    "grid_cases",
    "btree_cases",
    "generate_report",
    "summarize",
    "Summary",
    "paired_comparison",
    "PairedComparison",
    "trial_spread",
    "consistency_summary",
    "sparkline",
    "horizontal_bars",
    "histogram",
]
