"""Cost functions for annealing-based bisection.

Following Johnson, Aragon, McGeoch & Schevon (the paper's [JCAMS84]
reference), the annealer searches over *all* two-way partitions — not just
balanced ones — and penalizes imbalance in the cost function:

    cost(partition) = cut_weight + alpha * (w(A) - w(B))**2

with the imbalance factor ``alpha`` (Johnson et al. use values around
0.05).  Letting the search pass through unbalanced states is what makes
the single-vertex-move neighborhood connected; the penalty pressure keeps
the incumbent near balance so the best *balanced* configuration seen is
close to the raw incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BalanceCost"]


@dataclass(frozen=True)
class BalanceCost:
    """Imbalance-penalized cut cost with O(deg) move deltas.

    ``alpha`` trades cut quality against balance pressure: larger values
    confine the walk to nearly balanced states (slower mixing), smaller
    values let it wander (cheaper cuts that may be expensive to rebalance).
    """

    alpha: float = 0.05

    def __post_init__(self) -> None:
        # A negative penalty rewards imbalance; NaN or inf poisons every delta.
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha!r}")

    def total(self, cut: int, weight_diff: int) -> float:
        """Full cost of a state with the given cut and ``w(A) - w(B)``."""
        return cut + self.alpha * weight_diff * weight_diff

    def move_delta(self, cut_delta: int, weight_diff: int, move_weight: int) -> float:
        """Cost change from moving a vertex of weight ``move_weight`` off side 0.

        ``weight_diff`` is ``w(side0) - w(side1)`` *before* the move and
        ``move_weight`` is signed: positive when the vertex leaves side 0
        (diff decreases by ``2 * move_weight``), negative when it leaves
        side 1.  ``cut_delta`` is the cut change of the move.
        """
        new_diff = weight_diff - 2 * move_weight
        return cut_delta + self.alpha * (new_diff * new_diff - weight_diff * weight_diff)
