"""Exact-oracle comparison: heuristics vs. the brute-force optimum.

For corpus instances with ``n <= EXACT_MAX_VERTICES`` the true bisection
width is computable by exhaustive search (``partition/exact.py``), so
every heuristic can be scored against ground truth, not just against
invariants.  A heuristic *may* be suboptimal — they are heuristics — but
on graphs this small a healthy implementation lands within a small
bounded gap of the optimum; a broken gain update or a sign error blows
straight through the bound.

The documented bound is ``cut <= factor * optimum + slack`` with the
per-algorithm ``(factor, slack)`` pairs in :data:`ORACLE_BOUNDS`
(measured over the corpus with wide margin; see ``docs/verification.md``).
``slack`` absorbs the near-zero-optimum regime where a multiplicative
factor alone is meaningless (e.g. optimum 0 on disconnected ``Gnp``
draws).
"""

from __future__ import annotations

from typing import Any

from ..graphs.graph import Graph
from ..partition.exact import exact_bisection_width
from .invariants import Violation

__all__ = [
    "EXACT_MAX_VERTICES",
    "ORACLE_BOUNDS",
    "check_against_optimum",
    "exact_optimum",
    "oracle_bound",
]

EXACT_MAX_VERTICES = 14

# (factor, slack): a result violates the oracle when
# cut > factor * optimum + slack.  Measured over the corpus families
# (gnp, gbreg3, tree, planted) at n <= 14 across seeds 0-11, then given
# margin: the compacted variants (ckl/csa) land nearest the
# optimum (the coarse level smooths away most bad local optima), single
# runs of KL/FM sit within a few edges, and plain greedy descent plus
# the short-schedule annealers legitimately stop at worse local optima.
# A broken gain update or sign error lands near the *maximum* cut and
# blows through any of these.
ORACLE_BOUNDS: dict[str, tuple[float, int]] = {
    "kl": (2.0, 5),
    "ckl": (2.0, 3),
    "fm": (2.0, 5),
    "multilevel": (2.0, 5),
    "cycles": (1.0, 0),  # provably exact on its (degree <= 2) domain
    "greedy": (2.0, 7),
    "sa": (2.0, 7),
    "csa": (2.0, 3),
}
_DEFAULT_BOUND = (3.0, 8)


def oracle_bound(algorithm: str) -> tuple[float, int]:
    """The documented ``(factor, slack)`` bound for ``algorithm``."""
    return ORACLE_BOUNDS.get(algorithm, _DEFAULT_BOUND)


def exact_optimum(graph: Graph) -> int:
    """True bisection width of a small graph (raises above the size cap)."""
    if graph.num_vertices > EXACT_MAX_VERTICES:
        raise ValueError(
            f"exact oracle capped at {EXACT_MAX_VERTICES} vertices, "
            f"got {graph.num_vertices}"
        )
    return exact_bisection_width(graph)


def check_against_optimum(
    algorithm: str,
    cut: int,
    optimum: int,
    context: Any = "",
) -> list[Violation]:
    """Compare a heuristic cut against the brute-force optimum.

    A cut *below* the proven optimum of a balanced bisection is an
    outright correctness bug (the partition cannot be both balanced and
    that cheap); a cut above the documented bound flags a quality
    regression.  ``context`` (e.g. the instance name and seed) is embedded
    in the message so failures are reproducible.
    """
    violations = []
    suffix = f" [{context}]" if context else ""
    if cut < optimum:
        violations.append(Violation(
            "exact-oracle",
            f"{algorithm} reported cut {cut} below the proven optimum "
            f"{optimum} — the cut count or balance check is broken{suffix}",
        ))
    factor, slack = oracle_bound(algorithm)
    bound = factor * optimum + slack
    if cut > bound:
        violations.append(Violation(
            "exact-oracle",
            f"{algorithm} cut {cut} exceeds the documented bound "
            f"{factor} * {optimum} + {slack} = {bound:g}{suffix}",
        ))
    return violations
