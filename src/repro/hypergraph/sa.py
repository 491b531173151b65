"""Simulated annealing on netlists (net-cut objective).

Completes the paper's KL/SA pairing on the hypergraph side: the same
Metropolis loop as :mod:`repro.partition.annealing.sa`, with the cost

    net_cut + alpha * (w0 - w1)^2

and O(deg) move deltas via per-net pin counts: flipping cell ``v`` from
side ``s`` cuts every incident net whose pins were all on ``s`` and
un-cuts every net where ``v`` was the sole pin on ``s``.

Compacted and plain variants are exposed; the netlist benches compare
them against hypergraph FM the same way the paper compares SA to KL.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..partition.annealing.cost import BalanceCost
from ..partition.annealing.schedule import AnnealingSchedule, estimate_initial_temperature
from ..partition.bisection import minimum_achievable_imbalance
from ..rng import resolve_rng
from .fm import random_hypergraph_bisection
from .hypergraph import Hypergraph, HypergraphBisection, net_cut_weight

__all__ = ["hypergraph_sa", "HyperSAResult", "compacted_hypergraph_sa"]


@dataclass(frozen=True)
class HyperSAResult:
    """Outcome of a hypergraph SA run (same shape as ``SAResult``)."""

    bisection: HypergraphBisection
    initial_cut: int
    temperatures: int
    moves_attempted: int
    moves_accepted: int
    final_temperature: float
    initial_temperature: float
    temperature_trace: list[tuple[float, float, int]] = field(default_factory=list)
    # Provenance for the verification oracles: the tolerance the run was
    # asked to honor and the imbalance of the start it was handed (the
    # compacted variant hands the fine level a projected, possibly
    # unbalanced start).
    balance_tolerance: int | None = None
    initial_imbalance: int | None = None

    @property
    def cut(self) -> int:
        return self.bisection.cut

    @property
    def acceptance_ratio(self) -> float:
        if self.moves_attempted == 0:
            return 0.0
        return self.moves_accepted / self.moves_attempted


def _default_tolerance(hypergraph: Hypergraph) -> int:
    if hypergraph.is_uniform_vertex_weight():
        return hypergraph.num_vertices % 2
    return minimum_achievable_imbalance(
        hypergraph.vertex_weight(v) for v in hypergraph.vertices()
    )


def _cut_delta(hypergraph: Hypergraph, side_pins: list, v, side_v: int) -> int:
    """Net-cut change of flipping ``v`` off side ``side_v``."""
    delta = 0
    for net in hypergraph.nets_of(v):
        counts = side_pins[net]
        if counts[0] + counts[1] < 2:
            continue
        w = hypergraph.net_weight(net)
        if counts[1 - side_v] == 0:
            delta += w  # net becomes cut
        elif counts[side_v] == 1:
            delta -= w  # net becomes internal to the other side
    return delta


def hypergraph_sa(
    hypergraph: Hypergraph,
    init: HypergraphBisection | None = None,
    rng: random.Random | int | None = None,
    schedule: AnnealingSchedule | None = None,
    cost: BalanceCost | None = None,
    balance_tolerance: int | None = None,
    record_trace: bool = True,
) -> HyperSAResult:
    """Bisect a netlist (minimizing net cut) with simulated annealing.

    ``record_trace=False`` skips collecting ``temperature_trace`` (purely
    diagnostic; the walk itself is unaffected).
    """
    if hypergraph.num_vertices == 0:
        raise ValueError("cannot bisect the empty hypergraph")
    rng = resolve_rng(rng)
    schedule = schedule or AnnealingSchedule()
    cost = cost or BalanceCost()
    if balance_tolerance is None:
        balance_tolerance = _default_tolerance(hypergraph)

    if init is not None:
        if init.hypergraph is not hypergraph:
            raise ValueError("init bisection belongs to a different hypergraph")
        assignment = init.assignment()
    else:
        assignment = random_hypergraph_bisection(hypergraph, rng).assignment()

    cells = list(hypergraph.vertices())
    n = len(cells)
    weight = {v: hypergraph.vertex_weight(v) for v in cells}

    side_pins = [[0, 0] for _ in hypergraph.nets()]
    for net in hypergraph.nets():
        for p in hypergraph.pins(net):
            side_pins[net][assignment[p]] += 1

    cut = net_cut_weight(hypergraph, assignment)
    initial_cut = cut
    w0 = sum(weight[v] for v in cells if assignment[v] == 0)
    diff = 2 * w0 - hypergraph.total_vertex_weight
    initial_imbalance = abs(diff)

    best_cut = cut if abs(diff) <= balance_tolerance else None
    best_assignment = dict(assignment) if best_cut is not None else None

    # Initial temperature from a burst of sampled move deltas.
    sample_deltas = []
    for _ in range(min(max(200, n), 4 * n)):
        v = cells[rng.randrange(n)]
        side_v = assignment[v]
        cut_delta = _cut_delta(hypergraph, side_pins, v, side_v)
        signed = weight[v] if side_v == 0 else -weight[v]
        delta = cost.move_delta(cut_delta, diff, signed)
        if delta > 0:
            sample_deltas.append(delta)
    temperature = estimate_initial_temperature(sample_deltas, schedule.initial_acceptance)
    initial_temperature = temperature

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)
    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []
    alpha = cost.alpha
    rand = rng.random
    randrange = rng.randrange

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        for _ in range(moves_per_temp):
            if cutoff is not None and accepted_here >= cutoff:
                break
            attempted_here += 1
            v = cells[randrange(n)]
            side_v = assignment[v]
            cut_delta = _cut_delta(hypergraph, side_pins, v, side_v)
            wv = weight[v]
            new_diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
            delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
            if delta <= 0 or rand() < math.exp(-delta / temperature):
                assignment[v] = 1 - side_v
                for net in hypergraph.nets_of(v):
                    counts = side_pins[net]
                    counts[side_v] -= 1
                    counts[1 - side_v] += 1
                cut += cut_delta
                diff = new_diff
                accepted_here += 1
                if abs(diff) <= balance_tolerance and (best_cut is None or cut < best_cut):
                    best_cut = cut
                    best_assignment = dict(assignment)
                    improved_best = True
        attempted += attempted_here
        accepted += accepted_here
        ratio = accepted_here / attempted_here if attempted_here else 0.0
        if record_trace:
            trace.append((temperature, ratio, cut))
        temperatures += 1
        if ratio < schedule.min_acceptance and not improved_best:
            stale += 1
        else:
            stale = 0
        temperature = schedule.next_temperature(temperature)

    if best_assignment is None:
        # Never balanced: hand the final state to FM's repair machinery.
        from .fm import hypergraph_fm

        repaired = hypergraph_fm(
            hypergraph,
            init=HypergraphBisection(hypergraph, assignment),
            rng=rng,
            max_passes=1,
        )
        best_assignment = repaired.bisection.assignment()

    return HyperSAResult(
        bisection=HypergraphBisection(hypergraph, best_assignment),
        initial_cut=initial_cut,
        temperatures=temperatures,
        moves_attempted=attempted,
        moves_accepted=accepted,
        final_temperature=temperature,
        initial_temperature=initial_temperature,
        temperature_trace=trace,
        balance_tolerance=balance_tolerance,
        initial_imbalance=initial_imbalance,
    )


def compacted_hypergraph_sa(
    hypergraph: Hypergraph,
    rng: random.Random | int | None = None,
    schedule: AnnealingSchedule | None = None,
) -> HyperSAResult:
    """Compacted hypergraph SA (steps 1-5 with SA as the bisector).

    Returns the *final* SA result; its ``initial_cut`` is the projected
    start's cut, so improvement bookkeeping matches the plain variant.
    The projected start is not rebalanced: SA's balance penalty repairs it.
    """
    from ..core.pipeline import _level_loop
    from .compaction import compact_hypergraph, random_cell_matching

    cycle = _level_loop(
        hypergraph, rng, hypergraph_sa, None,
        match=random_cell_matching, contract=compact_hypergraph, schedule=schedule,
    )
    return cycle.final_result
