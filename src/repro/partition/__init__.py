"""Bisection algorithms: KL, SA, FM, and the baseline/oracle solvers."""

from .. import _lazy_exports

_EXPORTS = {
    ".annealing.cost": ("BalanceCost",),
    ".annealing.sa": ("SAResult", "simulated_annealing"),
    ".annealing.schedule": ("AnnealingSchedule",),
    ".bisection": (
        "Bisection", "cut_weight", "default_tolerance",
        "minimum_achievable_deviation", "minimum_achievable_imbalance",
        "rebalance", "side_weights",
    ),
    ".bounds": ("BisectionBounds", "bisection_lower_bound", "certify"),
    ".dfs_cycle": ("bisect_paths_and_cycles",),
    ".exact": ("exact_bisection", "exact_bisection_width"),
    ".fm": ("FMResult", "fiduccia_mattheyses"),
    ".greedy": ("GreedyResult", "greedy_improvement"),
    ".io": (
        "partition_from_string", "partition_to_string", "read_bisection",
        "read_partition", "write_partition",
    ),
    ".kl": ("KLResult", "kernighan_lin", "kl_pass"),
    ".kway": ("KWayPartition", "recursive_kway"),
    ".mincut": ("GlobalMinCut", "stoer_wagner"),
    ".random_init": ("random_assignment", "random_bisection"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Bisection",
    "cut_weight",
    "side_weights",
    "default_tolerance",
    "minimum_achievable_imbalance",
    "minimum_achievable_deviation",
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
    "recursive_kway",
    "KWayPartition",
    "greedy_improvement",
    "GreedyResult",
    "exact_bisection",
    "exact_bisection_width",
    "bisect_paths_and_cycles",
    "stoer_wagner",
    "GlobalMinCut",
    "bisection_lower_bound",
    "BisectionBounds",
    "certify",
    "write_partition",
    "read_partition",
    "read_bisection",
    "partition_to_string",
    "partition_from_string",
]
