"""Bisection algorithms: KL, SA, FM, and the baseline/oracle solvers."""

from .. import _lazy_exports

_EXPORTS = {
    ".annealing.cost": ("BalanceCost",),
    ".annealing.sa": ("SAResult", "simulated_annealing"),
    ".annealing.schedule": ("AnnealingSchedule",),
    ".bisection": (
        "Bisection", "cut_weight", "default_tolerance",
        "minimum_achievable_imbalance", "rebalance", "side_weights",
    ),
    ".dfs_cycle": ("bisect_paths_and_cycles",),
    ".exact": ("exact_bisection", "exact_bisection_width"),
    ".fm": ("FMResult", "fiduccia_mattheyses"),
    ".greedy": ("GreedyResult", "greedy_improvement"),
    ".io": ("write_partition",),
    ".kl": ("KLResult", "kernighan_lin", "kl_pass"),
    ".random_init": ("random_assignment", "random_bisection"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Bisection",
    "cut_weight",
    "side_weights",
    "default_tolerance",
    "minimum_achievable_imbalance",
    "rebalance",
    "random_bisection",
    "random_assignment",
    "kernighan_lin",
    "kl_pass",
    "KLResult",
    "simulated_annealing",
    "SAResult",
    "AnnealingSchedule",
    "BalanceCost",
    "fiduccia_mattheyses",
    "FMResult",
    "greedy_improvement",
    "GreedyResult",
    "exact_bisection",
    "exact_bisection_width",
    "bisect_paths_and_cycles",
    "write_partition",
]
