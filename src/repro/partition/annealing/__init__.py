"""Simulated annealing bisection: the algorithm, schedules, and cost models."""

from ... import _lazy_exports

_EXPORTS = {
    ".cost": ("BalanceCost",),
    ".sa": ("SAResult", "simulated_annealing"),
    ".schedule": ("AnnealingSchedule", "estimate_initial_temperature"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "simulated_annealing",
    "SAResult",
    "AnnealingSchedule",
    "estimate_initial_temperature",
    "BalanceCost",
]
