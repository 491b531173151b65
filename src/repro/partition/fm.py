"""Fiduccia-Mattheyses refinement — the single-move variant of Kernighan-Lin.

FM is "the most widely used" family of KL variations the paper alludes to
(Section III) and the standard refinement engine of multilevel
partitioners, which is why the multilevel extension
(:mod:`repro.core.multilevel`) uses it: unlike the pair-swap KL in
:mod:`repro.partition.kl`, FM moves *single* vertices, so it refines
contracted graphs with mixed vertex weights without needing equal-weight
pairs.

A pass moves every vertex exactly once (best-gain first, subject to a
loose balance window), then rolls back to the best prefix that is
*strictly* balanced.  The loose window — wide enough for the heaviest
single vertex to cross — is what lets the search escape the
balance-preserving-swap subspace; strict balance is restored by the prefix
choice.  If the pass started out of balance (which happens when a
coarse-level solution is projected onto a finer graph with a smaller
achievable imbalance), the prefix minimizing imbalance is taken instead,
so FM doubles as a balance repairer.

Beyond 50/50 splits, FM accepts ``target_weights``: the pass then treats
"balance" as *deviation from the target split*, which is what k-way
recursive bisection (:mod:`repro.partition.kway`) needs to carve a graph
into unequal shares (e.g. 3:2 when splitting five parts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from ..graphs.csr import csr_view
from ..graphs.graph import Graph
from ..kernels import kernel_backend
from ..kernels.fm import fm_pass_csr
from ..obs import counter, span
from ..rng import resolve_rng
from .bisection import (
    Bisection,
    cut_weight,
    default_tolerance,
    minimum_achievable_deviation,
    side_weights,
)
from .random_init import random_assignment

__all__ = ["fiduccia_mattheyses", "FMResult"]


@dataclass(frozen=True)
class FMResult:
    """Outcome of an FM run (same shape as ``KLResult``)."""

    bisection: Bisection
    initial_cut: int
    passes: int
    pass_gains: list[int] = field(default_factory=list)
    moves: int = 0

    @property
    def cut(self) -> int:
        return self.bisection.cut

    def cut_trace(self) -> list[int]:
        """Cut after each applied pass: ``[initial, after pass 1, ...]``.

        Monotone non-increasing whenever the run *started* balanced (a
        balance-repair pass may trade cut for balance); the verification
        oracles rely on this.
        """
        trace = [self.initial_cut]
        for gain in self.pass_gains:
            trace.append(trace[-1] - gain)
        return trace


def _fm_pass_dict(
    graph: Graph,
    assignment: dict,
    strict_tol: int,
    loose_tol: int,
    target_diff: int = 0,
    stats: dict | None = None,
) -> tuple[int, int]:
    """One FM pass over the dict adjacency (reference kernel)."""
    gains: dict = {}
    for v in graph.vertices():
        side_v = assignment[v]
        gains[v] = sum(
            w if assignment[u] != side_v else -w for u, w in graph.neighbor_items(v)
        )

    heaps: tuple[list, list] = ([], [])
    for v in graph.vertices():
        heappush(heaps[assignment[v]], (-gains[v], v))

    w0, w1 = side_weights(graph, assignment)
    diff = w0 - w1
    locked: set = set()
    sequence: list = []  # moved vertices in order
    running_gain = 0

    def deviation(d: int) -> int:
        return abs(d - target_diff)

    start_balanced = deviation(diff) <= strict_tol
    best_balanced_gain = 0 if start_balanced else None
    best_balanced_k = 0
    best_deviation = deviation(diff)
    best_deviation_k = 0
    best_deviation_gain = 0
    stale = 0  # obs only: superseded/locked entries discarded
    stashed = 0  # obs only: balance-illegal entries stashed and restored

    def next_allowed(side: int):
        """Pop the best unlocked, fresh, balance-legal vertex on ``side``.

        Stale or illegal entries are discarded; an entry that is merely
        illegal *now* was pushed again on every gain update, and vertices
        never become illegal-forever while unlocked, because the loose
        window always admits moves off the heavier side.
        """
        nonlocal stale, stashed
        heap = heaps[side]
        stash = []
        found = None
        while heap:
            neg_gain, v = heappop(heap)
            if v in locked or assignment[v] != side or gains[v] != -neg_gain:
                stale += 1
                continue
            wv = graph.vertex_weight(v)
            new_diff = diff - 2 * wv if side == 0 else diff + 2 * wv
            if deviation(new_diff) <= loose_tol or deviation(new_diff) < deviation(diff):
                found = (neg_gain, v)
                break
            stash.append((neg_gain, v))
        stashed += len(stash)
        for item in stash:
            heappush(heap, item)
        return found

    num_vertices = graph.num_vertices
    while len(sequence) < num_vertices:
        cand0 = next_allowed(0)
        cand1 = next_allowed(1)
        if cand0 is None and cand1 is None:
            break
        if cand1 is None or (cand0 is not None and cand0[0] <= cand1[0]):
            chosen, other = cand0, cand1
        else:
            chosen, other = cand1, cand0
        if other is not None:
            heappush(heaps[assignment[other[1]]], other)

        _, v = chosen
        side_v = assignment[v]
        gain_v = gains[v]
        wv = graph.vertex_weight(v)
        locked.add(v)
        assignment[v] = 1 - side_v
        diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
        running_gain += gain_v
        sequence.append(v)

        for u, w in graph.neighbor_items(v):
            if u in locked:
                continue
            # v left u's side (edge now cut) or joined it (edge now internal).
            gains[u] += 2 * w if assignment[u] == side_v else -2 * w
            heappush(heaps[assignment[u]], (-gains[u], u))
        gains[v] = -gain_v

        k = len(sequence)
        dev = deviation(diff)
        if dev <= strict_tol:
            if best_balanced_gain is None or running_gain > best_balanced_gain:
                best_balanced_gain = running_gain
                best_balanced_k = k
        if dev < best_deviation or (dev == best_deviation and running_gain > best_deviation_gain):
            best_deviation = dev
            best_deviation_k = k
            best_deviation_gain = running_gain

    if best_balanced_gain is not None:
        keep, applied = best_balanced_k, best_balanced_gain
    else:
        # No strictly balanced prefix reachable; take the closest-to-target one.
        keep, applied = best_deviation_k, best_deviation_gain
    for v in reversed(sequence[keep:]):
        assignment[v] = 1 - assignment[v]
    if stats is not None:
        _accumulate_pass_stats(
            stats, considered=len(sequence), stale=stale, stashed=stashed
        )
    return applied, keep


def _accumulate_pass_stats(
    stats: dict, *, considered: int, stale: int, stashed: int
) -> None:
    stats["moves_considered"] = stats.get("moves_considered", 0) + considered
    stats["stale_pops"] = stats.get("stale_pops", 0) + stale
    stats["stash_restores"] = stats.get("stash_restores", 0) + stashed


def _fm_pass(
    graph: Graph,
    assignment: dict,
    strict_tol: int,
    loose_tol: int,
    target_diff: int = 0,
    stats: dict | None = None,
) -> tuple[int, int]:
    """One FM pass; mutates ``assignment``.  Returns ``(applied_gain, moves_kept)``.

    "Balance" throughout is the deviation ``|w0 - w1 - target_diff|``;
    ``target_diff = 0`` is the ordinary bisection case.  ``applied_gain``
    is relative to the cut at pass entry and may be negative when the pass
    was used to repair balance.  Dispatches to the CSR bucket-list kernel
    when enabled; both kernels make identical decisions.
    """
    backend = kernel_backend()
    if backend != "dict":
        return fm_pass_csr(
            csr_view(graph), assignment, strict_tol, loose_tol, target_diff, stats,
            backend,
        )
    return _fm_pass_dict(graph, assignment, strict_tol, loose_tol, target_diff, stats)


def fiduccia_mattheyses(
    graph: Graph,
    init: Bisection | None = None,
    rng: random.Random | int | None = None,
    max_passes: int | None = None,
    balance_tolerance: int | None = None,
    target_weights: tuple[int, int] | None = None,
) -> FMResult:
    """Bisect (or refine) ``graph`` with Fiduccia-Mattheyses passes.

    ``balance_tolerance`` is the *strict* tolerance of the returned
    bisection; the internal wander window additionally admits one
    heaviest-vertex move past it.

    ``target_weights = (t0, t1)`` asks for an *unequal* split: side 0
    should carry total vertex weight ``t0`` and side 1 ``t1`` (they must
    sum to the graph's total vertex weight).  The default is the 50/50
    split.  With a target, the default strict tolerance is the minimum
    deviation any 2-partition of the vertex weights can achieve.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot bisect the empty graph")
    rng = resolve_rng(rng)

    total = graph.total_vertex_weight
    if target_weights is None:
        target_diff = 0
        strict_default = default_tolerance(graph)
    else:
        t0, t1 = target_weights
        if t0 < 0 or t1 < 0 or t0 + t1 != total:
            raise ValueError(
                f"target_weights must be nonnegative and sum to {total}, got {target_weights}"
            )
        target_diff = t0 - t1
        strict_default = minimum_achievable_deviation(
            (graph.vertex_weight(v) for v in graph.vertices()), target_diff
        )

    if init is not None:
        if init.graph is not graph and init.graph != graph:
            raise ValueError("init bisection belongs to a different graph")
        assignment = init.assignment()
    else:
        assignment = random_assignment(graph, rng)

    strict_tol = strict_default if balance_tolerance is None else balance_tolerance
    max_weight = max(graph.vertex_weight(v) for v in graph.vertices())
    loose_tol = max(strict_tol, 2 * max_weight)

    if kernel_backend() != "dict":
        csr_view(graph)  # compile once up front; cut/side weights reuse it

    initial_cut = cut_weight(graph, assignment)
    cut = initial_cut
    passes = 0
    total_moves = 0
    pass_gains: list[int] = []
    stats: dict[str, int] = {}
    with span("fm.run", vertices=graph.num_vertices):
        while max_passes is None or passes < max_passes:
            w0, w1 = side_weights(graph, assignment)
            was_balanced = abs(w0 - w1 - target_diff) <= strict_tol
            with span("fm.pass"):
                gain, kept = _fm_pass(
                    graph, assignment, strict_tol, loose_tol, target_diff, stats
                )
            passes += 1
            cut -= gain
            total_moves += kept
            if kept:
                pass_gains.append(gain)
            if gain <= 0 and was_balanced:
                break
            if kept == 0:
                break

    counter("fm_runs_total").inc()
    counter("fm_passes_total").inc(passes)
    counter("fm_moves_considered_total").inc(stats.get("moves_considered", 0))
    counter("fm_moves_committed_total").inc(total_moves)
    counter("fm_stale_pops_total").inc(stats.get("stale_pops", 0))
    counter("fm_stash_restores_total").inc(stats.get("stash_restores", 0))

    result = Bisection(graph, assignment)
    assert result.cut == cut, "incremental cut diverged from recomputation"
    return FMResult(
        bisection=result,
        initial_cut=initial_cut,
        passes=passes,
        pass_gains=pass_gains,
        moves=total_moves,
    )
