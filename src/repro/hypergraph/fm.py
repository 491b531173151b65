"""The Fiduccia-Mattheyses algorithm on its native object: hypergraphs.

This is the real 1982 FM — single-cell moves minimizing *net cut*, gains
maintained per net via pin-count bookkeeping — as opposed to the graph
specialization in :mod:`repro.partition.fm`.  The move loop mirrors the
graph version (loose balance window, strictly-balanced best prefix,
rollback), so the two are directly comparable in the netlist bench.

Gain of moving cell ``v`` from side ``s`` to side ``t``:

* a net with exactly one pin on ``s`` (that pin is ``v``) becomes uncut: +w;
* a net with zero pins on ``t`` becomes cut: -w.

After a move the classic four update rules fire per incident net (using
the pin counts before/after): critical nets — those with 0 or 1 pins on
one side — adjust the gains of their free pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..partition.bisection import minimum_achievable_imbalance
from ..rng import resolve_rng
from .gains import make_gain_container
from .hypergraph import Hypergraph, HypergraphBisection, net_cut_weight

__all__ = ["hypergraph_fm", "HyperFMResult", "random_hypergraph_bisection"]


@dataclass(frozen=True)
class HyperFMResult:
    """Outcome of a hypergraph FM run."""

    bisection: HypergraphBisection
    initial_cut: int
    passes: int
    pass_gains: list[int] = field(default_factory=list)
    moves: int = 0

    @property
    def cut(self) -> int:
        return self.bisection.cut


def _default_tolerance(hypergraph: Hypergraph) -> int:
    if hypergraph.is_uniform_vertex_weight():
        return hypergraph.num_vertices % 2
    return minimum_achievable_imbalance(
        hypergraph.vertex_weight(v) for v in hypergraph.vertices()
    )


def random_hypergraph_bisection(
    hypergraph: Hypergraph, rng: random.Random | int | None = None
) -> HypergraphBisection:
    """A random balanced starting bisection (cells split by weight greedily)."""
    rng = resolve_rng(rng)
    cells = list(hypergraph.vertices())
    rng.shuffle(cells)
    cells.sort(key=hypergraph.vertex_weight, reverse=True)
    assignment: dict = {}
    w0 = w1 = 0
    for v in cells:
        wv = hypergraph.vertex_weight(v)
        if w0 <= w1:
            assignment[v] = 0
            w0 += wv
        else:
            assignment[v] = 1
            w1 += wv
    return HypergraphBisection(hypergraph, assignment)


def _initial_gains(hypergraph: Hypergraph, assignment: dict, side_pins: list) -> dict:
    gains: dict = {}
    for v in hypergraph.vertices():
        s = assignment[v]
        gain = 0
        for net in hypergraph.nets_of(v):
            if hypergraph.net_size(net) < 2:
                continue
            w = hypergraph.net_weight(net)
            if side_pins[net][s] == 1:
                gain += w
            if side_pins[net][1 - s] == 0:
                gain -= w
        gains[v] = gain
    return gains


def _fm_pass(
    hypergraph: Hypergraph,
    assignment: dict,
    strict_tol: int,
    loose_tol: int,
    gain_structure: str = "heap",
) -> tuple[int, int]:
    """One hypergraph-FM pass; mutates ``assignment``.

    ``gain_structure`` selects the gain container: lazy max-heaps or FM's
    classic bucket array (see :mod:`repro.hypergraph.gains`).
    """
    side_pins = [[0, 0] for _ in hypergraph.nets()]
    for net in hypergraph.nets():
        for p in hypergraph.pins(net):
            side_pins[net][assignment[p]] += 1

    gains = _initial_gains(hypergraph, assignment, side_pins)

    container = make_gain_container(gain_structure, lambda v: gains[v])
    for v in hypergraph.vertices():
        container.add(assignment[v], v, gains[v])

    w0 = sum(hypergraph.vertex_weight(v) for v in hypergraph.vertices() if assignment[v] == 0)
    diff = 2 * w0 - hypergraph.total_vertex_weight
    locked: set = set()
    sequence: list = []
    running_gain = 0

    start_balanced = abs(diff) <= strict_tol
    best_balanced_gain = 0 if start_balanced else None
    best_balanced_k = 0
    best_imbalance = abs(diff)
    best_imbalance_k = 0
    best_imbalance_gain = 0

    def bump(v, delta: int) -> None:
        if v in locked or delta == 0:
            return
        old = gains[v]
        gains[v] = old + delta
        container.update(assignment[v], v, old, gains[v])

    def next_allowed(side: int):
        def allowed(v) -> bool:
            if v in locked or assignment[v] != side:
                return False
            wv = hypergraph.vertex_weight(v)
            new_diff = diff - 2 * wv if side == 0 else diff + 2 * wv
            return abs(new_diff) <= loose_tol or abs(new_diff) < abs(diff)

        return container.select(side, allowed)

    num_cells = hypergraph.num_vertices
    while len(sequence) < num_cells:
        cand0 = next_allowed(0)
        cand1 = next_allowed(1)
        if cand0 is None and cand1 is None:
            break
        if cand1 is None or (cand0 is not None and gains[cand0] >= gains[cand1]):
            v = cand0
        else:
            v = cand1

        src = assignment[v]
        dst = 1 - src
        gain_v = gains[v]
        wv = hypergraph.vertex_weight(v)
        locked.add(v)
        container.discard(src, v, gain_v)

        # FM's four critical-net update rules, per incident net.
        for net in hypergraph.nets_of(v):
            if hypergraph.net_size(net) < 2:
                continue
            w = hypergraph.net_weight(net)
            counts = side_pins[net]
            pins = hypergraph.pins(net)
            # Before the move.
            if counts[dst] == 0:
                for p in pins:
                    bump(p, w)
            elif counts[dst] == 1:
                for p in pins:
                    if p != v and assignment[p] == dst:
                        bump(p, -w)
            counts[src] -= 1
            counts[dst] += 1
            # After the move.
            if counts[src] == 0:
                for p in pins:
                    bump(p, -w)
            elif counts[src] == 1:
                for p in pins:
                    if p != v and assignment[p] == src:
                        bump(p, w)

        assignment[v] = dst
        diff = diff - 2 * wv if src == 0 else diff + 2 * wv
        running_gain += gain_v
        sequence.append(v)
        gains[v] = -gain_v

        k = len(sequence)
        imb = abs(diff)
        if imb <= strict_tol and (
            best_balanced_gain is None or running_gain > best_balanced_gain
        ):
            best_balanced_gain = running_gain
            best_balanced_k = k
        if imb < best_imbalance or (imb == best_imbalance and running_gain > best_imbalance_gain):
            best_imbalance = imb
            best_imbalance_k = k
            best_imbalance_gain = running_gain

    if best_balanced_gain is not None:
        keep, applied = best_balanced_k, best_balanced_gain
    else:
        keep, applied = best_imbalance_k, best_imbalance_gain
    for v in reversed(sequence[keep:]):
        assignment[v] = 1 - assignment[v]
    return applied, keep


def hypergraph_fm(
    hypergraph: Hypergraph,
    init: HypergraphBisection | None = None,
    rng: random.Random | int | None = None,
    max_passes: int | None = None,
    balance_tolerance: int | None = None,
    gain_structure: str = "bucket",
) -> HyperFMResult:
    """Bisect a hypergraph minimizing net cut with FM passes.

    ``gain_structure`` selects the gain container — ``"bucket"`` (FM's
    classic bucket array, the default: ~5x faster in the ablation bench)
    or ``"heap"`` (lazy max-heaps); both produce identical move sequences
    up to tie-breaking.
    """
    if hypergraph.num_vertices == 0:
        raise ValueError("cannot bisect the empty hypergraph")
    rng = resolve_rng(rng)
    if init is not None:
        if init.hypergraph is not hypergraph:
            raise ValueError("init bisection belongs to a different hypergraph")
        assignment = init.assignment()
    else:
        assignment = random_hypergraph_bisection(hypergraph, rng).assignment()

    if balance_tolerance is None:
        strict_tol = _default_tolerance(hypergraph)
    else:
        strict_tol = balance_tolerance
    max_weight = max(hypergraph.vertex_weight(v) for v in hypergraph.vertices())
    loose_tol = max(strict_tol, 2 * max_weight)

    initial_cut = net_cut_weight(hypergraph, assignment)
    cut = initial_cut
    passes = 0
    total_moves = 0
    pass_gains: list[int] = []
    while max_passes is None or passes < max_passes:
        w0 = sum(
            hypergraph.vertex_weight(v)
            for v in hypergraph.vertices()
            if assignment[v] == 0
        )
        was_balanced = abs(2 * w0 - hypergraph.total_vertex_weight) <= strict_tol
        gain, kept = _fm_pass(hypergraph, assignment, strict_tol, loose_tol, gain_structure)
        passes += 1
        cut -= gain
        total_moves += kept
        if kept:
            pass_gains.append(gain)
        if gain <= 0 and was_balanced:
            break
        if kept == 0:
            break

    result = HypergraphBisection(hypergraph, assignment)
    assert result.cut == cut, "incremental net cut diverged from recomputation"
    return HyperFMResult(
        bisection=result,
        initial_cut=initial_cut,
        passes=passes,
        pass_gains=pass_gains,
        moves=total_moves,
    )
