"""Simulated annealing graph bisection (paper Fig. 1, [KGV83], [JCAMS84]).

The state space is *all* two-way partitions; a move flips one random
vertex to the other side; cost is the imbalance-penalized cut of
:class:`~repro.partition.annealing.cost.BalanceCost`.  Moves follow the
Metropolis rule: downhill always accepted, uphill with probability
``exp(-delta / T)``.

Two details the paper's Section VII calls out are implemented here:

* **best-seen tracking** — "simulated annealing may migrate away from an
  optimal solution if it is found at a high temperature.  One must then
  save the best bisection found as the algorithm progresses."  The best
  *balanced* assignment ever visited is kept and returned.
* **schedule sensitivity** — every schedule knob is explicit (see
  :class:`~repro.partition.annealing.schedule.AnnealingSchedule`), and the
  ablation bench sweeps them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from operator import mul

from ...graphs.csr import CSRGraph, csr_view
from ...graphs.graph import Graph
from ...kernels import kernel_backend
from ...kernels.gains import cut_weight as kernel_cut_weight
from ...kernels.gains import side_weights as kernel_side_weights
from ...kernels.sa import flip_walk
from ...obs import counter, gauge, histogram, obs_enabled, span
from ...obs.metrics import RATIO_BUCKETS
from ...rng import resolve_rng
from ..bisection import Bisection, cut_weight, default_tolerance, rebalance, side_weights
from ..random_init import random_assignment
from .cost import BalanceCost
from .schedule import AnnealingSchedule, estimate_initial_temperature

__all__ = ["simulated_annealing", "SAResult"]


@dataclass(frozen=True)
class SAResult:
    """Outcome of a simulated annealing run.

    ``bisection`` is the best balanced configuration seen (rebalanced from
    the best near-balanced incumbent if the walk never touched an exactly
    balanced state).  ``temperature_trace`` holds
    ``(temperature, acceptance_ratio, current_cut)`` per cooling step for
    schedule diagnostics; it is empty when the run was started with
    ``record_trace=False`` (long anneals on large graphs otherwise hold
    O(temperatures) tuples nobody reads — the perf harness opts out).
    """

    bisection: Bisection
    initial_cut: int
    temperatures: int
    moves_attempted: int
    moves_accepted: int
    final_temperature: float
    initial_temperature: float
    temperature_trace: list[tuple[float, float, int]] = field(default_factory=list)
    # The balance tolerance the run was asked to honor and the imbalance of
    # the start it was handed — provenance for the verification oracles, which
    # re-check the returned bisection and gate the best-vs-initial comparison
    # on whether the walk actually started balanced (a projected coarse start
    # may not be).
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


def _sample_initial_temperature(
    graph: Graph,
    assignment: dict,
    vertices: list,
    cost: BalanceCost,
    schedule: AnnealingSchedule,
    rng: random.Random,
) -> float:
    """Estimate T0 from the uphill deltas of a burst of random trial moves."""
    w0, w1 = side_weights(graph, assignment)
    diff = w0 - w1
    deltas = []
    sample_size = min(max(200, graph.num_vertices), 4 * graph.num_vertices)
    for _ in range(sample_size):
        v = vertices[rng.randrange(len(vertices))]
        side_v = assignment[v]
        cut_delta = 0
        for u, w in graph.neighbor_items(v):
            cut_delta += w if assignment[u] == side_v else -w
        signed_weight = graph.vertex_weight(v) if side_v == 0 else -graph.vertex_weight(v)
        delta = cost.move_delta(cut_delta, diff, signed_weight)
        if delta > 0:
            deltas.append(delta)
    return estimate_initial_temperature(deltas, schedule.initial_acceptance)


def _sample_initial_temperature_csr(
    csr: CSRGraph,
    sides: list[int],
    diff: int,
    cost: BalanceCost,
    schedule: AnnealingSchedule,
    rng: random.Random,
) -> float:
    """CSR twin of :func:`_sample_initial_temperature`.

    Consumes the same ``rng.randrange`` draws over the same insertion-order
    vertex indexing and funnels each trial through ``cost.move_delta``
    verbatim, so the estimated T0 is bit-identical to the dict path's.
    """
    n = csr.num_vertices
    sides_get = sides.__getitem__
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    wdeg = csr.weighted_degrees()
    vweights = csr.vertex_weight_list()
    randrange = rng.randrange
    deltas = []
    sample_size = min(max(200, n), 4 * n)
    for _ in range(sample_size):
        i = randrange(n)
        row = nbrs[i]
        if wts is None:
            s1 = sum(map(sides_get, row))
        else:
            s1 = sum(map(mul, wts[i], map(sides_get, row)))
        # cut_delta is (same-side weight) - (other-side weight), as in the
        # dict kernel's accumulation.
        cut_delta = wdeg[i] - 2 * s1 if sides[i] == 0 else 2 * s1 - wdeg[i]
        signed_weight = vweights[i] if sides[i] == 0 else -vweights[i]
        delta = cost.move_delta(cut_delta, diff, signed_weight)
        if delta > 0:
            deltas.append(delta)
    return estimate_initial_temperature(deltas, schedule.initial_acceptance)


def _anneal_flip_csr(
    graph: Graph,
    assignment: dict,
    rng: random.Random,
    schedule: AnnealingSchedule,
    cost: BalanceCost,
    balance_tolerance: int,
    record_trace: bool,
    backend: str,
) -> SAResult:
    """The flip-neighborhood Metropolis walk over the CSR view.

    Bit-identical to the dict loop in :func:`simulated_annealing`: vertex
    ids follow insertion order so the index draws pick the same vertices,
    the uniform draw is consumed under exactly the same condition
    (``delta > 0``), and every decision float is computed from the same
    expressions.  The sweep itself lives in :mod:`repro.kernels.sa`
    (buffered lagged-Fibonacci stream, per-side penalty precompute,
    per-temperature exp memo); this wrapper owns the framing — initial
    state, T0 sampling, and the result envelope.
    """
    csr = csr_view(graph)
    sides = csr.sides_list(assignment)

    cut = kernel_cut_weight(csr, sides, backend)
    initial_cut = cut
    w0, w1 = kernel_side_weights(csr, sides, backend)
    diff = w0 - w1
    initial_imbalance = abs(diff)

    temperature = _sample_initial_temperature_csr(csr, sides, diff, cost, schedule, rng)

    walk = flip_walk(
        csr,
        sides,
        cut,
        diff,
        temperature,
        rng,
        schedule,
        cost.alpha,
        balance_tolerance,
        record_trace,
        backend,
    )

    if walk.best_sides is None:
        best_assignment = rebalance(
            graph, csr.assignment_dict(walk.sides), balance_tolerance, rng
        )
    else:
        best_assignment = csr.assignment_dict(walk.best_sides)

    return SAResult(
        bisection=Bisection(graph, best_assignment),
        initial_cut=initial_cut,
        temperatures=walk.temperatures,
        moves_attempted=walk.attempted,
        moves_accepted=walk.accepted,
        final_temperature=walk.final_temperature,
        initial_temperature=temperature,
        temperature_trace=walk.trace,
        balance_tolerance=balance_tolerance,
        initial_imbalance=initial_imbalance,
    )


def simulated_annealing(
    graph: Graph,
    init: Bisection | None = None,
    rng: random.Random | int | None = None,
    schedule: AnnealingSchedule | None = None,
    cost: BalanceCost | None = None,
    balance_tolerance: int | None = None,
    neighborhood: str = "flip",
    record_trace: bool = True,
) -> SAResult:
    """Bisect ``graph`` with simulated annealing.

    ``init`` seeds the walk (used by compacted SA); otherwise a random
    balanced bisection drawn from ``rng``.  The returned bisection is
    always balanced to ``balance_tolerance`` (default: the graph's minimum
    achievable imbalance).

    ``neighborhood`` selects the move set: ``"flip"`` (Johnson et al.'s
    single-vertex move over all partitions, the default) or ``"swap"``
    (exchange one vertex from each side — on unit-weight graphs balance
    never changes, at the cost of slower mixing; the classic tradeoff
    the imbalance-penalty design exists to avoid).

    ``record_trace=False`` skips collecting ``temperature_trace`` (the
    run itself is unaffected — the trace is purely diagnostic).

    The flip neighborhood runs on the graph's CSR view unless
    ``REPRO_KERNEL=dict``: every decision is RNG- and arithmetic-driven
    over the same insertion-order vertex indexing, so the walk is
    bit-identical to the dict path's.
    """
    with span("sa.run", vertices=graph.num_vertices, neighborhood=neighborhood):
        result = _simulated_annealing_impl(
            graph,
            init,
            rng,
            schedule,
            cost,
            balance_tolerance,
            neighborhood,
            record_trace,
        )
    _record_sa_obs(result)
    return result


def _record_sa_obs(result: SAResult) -> None:
    """Flush SA counters from a finished result — never touches the walk."""
    if not obs_enabled():
        return
    counter("sa_runs_total").inc()
    counter("sa_temperatures_total").inc(result.temperatures)
    counter("sa_moves_attempted_total").inc(result.moves_attempted)
    counter("sa_moves_accepted_total").inc(result.moves_accepted)
    gauge("sa_final_temperature").set(result.final_temperature)
    gauge("sa_acceptance_ratio").set(result.acceptance_ratio)
    if result.temperature_trace:
        histogram("sa_temperature_acceptance_ratio", buckets=RATIO_BUCKETS).observe_many(
            ratio for _temperature, ratio, _cut in result.temperature_trace
        )


def _simulated_annealing_impl(
    graph: Graph,
    init: Bisection | None,
    rng: random.Random | int | None,
    schedule: AnnealingSchedule | None,
    cost: BalanceCost | None,
    balance_tolerance: int | None,
    neighborhood: str,
    record_trace: bool,
) -> SAResult:
    if neighborhood not in ("flip", "swap"):
        raise ValueError(f"neighborhood must be 'flip' or 'swap', got {neighborhood!r}")
    if graph.num_vertices == 0:
        raise ValueError("cannot bisect the empty graph")
    rng = resolve_rng(rng)
    schedule = schedule or AnnealingSchedule()
    cost = cost or BalanceCost()
    if balance_tolerance is None:
        balance_tolerance = default_tolerance(graph)

    if init is not None:
        if init.graph is not graph and init.graph != graph:
            raise ValueError("init bisection belongs to a different graph")
        assignment = init.assignment()
    else:
        assignment = random_assignment(graph, rng)

    backend = kernel_backend()
    if neighborhood == "flip" and backend != "dict":
        return _anneal_flip_csr(
            graph, assignment, rng, schedule, cost, balance_tolerance, record_trace,
            backend,
        )

    vertices = list(graph.vertices())
    n = len(vertices)
    weight = {v: graph.vertex_weight(v) for v in vertices}

    cut = cut_weight(graph, assignment)
    initial_cut = cut
    w0, w1 = side_weights(graph, assignment)
    diff = w0 - w1
    initial_imbalance = abs(diff)

    best_cut = cut if abs(diff) <= balance_tolerance else None
    best_assignment = dict(assignment) if best_cut is not None else None

    temperature = _sample_initial_temperature(graph, assignment, vertices, cost, schedule, rng)
    initial_temperature = temperature
    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    rand = rng.random
    randrange = rng.randrange
    alpha = cost.alpha

    # Per-side vertex lists for the swap neighborhood (O(1) exchange).
    side_lists: tuple[list, list] = ([], [])
    if neighborhood == "swap":
        for v in vertices:
            side_lists[assignment[v]].append(v)
        if not side_lists[0] or not side_lists[1]:
            raise ValueError("swap neighborhood needs vertices on both sides")

    def move_gain(v, side_v: int) -> int:
        g = 0
        for u, w in graph.neighbor_items(v):
            g += w if assignment[u] == side_v else -w
        return g

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        for _ in range(moves_per_temp):
            if cutoff is not None and accepted_here >= cutoff:
                break  # Johnson's cutoff: this temperature has equilibrated
            attempted_here += 1
            if neighborhood == "flip":
                v = vertices[randrange(n)]
                side_v = assignment[v]
                cut_delta = move_gain(v, side_v)
                wv = weight[v]
                new_diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
                delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
                if delta <= 0 or rand() < math.exp(-delta / temperature):
                    assignment[v] = 1 - side_v
                    cut += cut_delta
                    diff = new_diff
                    accepted_here += 1
                    if abs(diff) <= balance_tolerance and (
                        best_cut is None or cut < best_cut
                    ):
                        best_cut = cut
                        best_assignment = dict(assignment)
                        improved_best = True
            else:  # swap
                i = randrange(len(side_lists[0]))
                j = randrange(len(side_lists[1]))
                a = side_lists[0][i]
                b = side_lists[1][j]
                cut_delta = move_gain(a, 0) + move_gain(b, 1) + 2 * graph.edge_weight(a, b)
                new_diff = diff - 2 * weight[a] + 2 * weight[b]
                delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
                if delta <= 0 or rand() < math.exp(-delta / temperature):
                    assignment[a] = 1
                    assignment[b] = 0
                    side_lists[0][i] = b
                    side_lists[1][j] = a
                    cut += cut_delta
                    diff = new_diff
                    accepted_here += 1
                    if abs(diff) <= balance_tolerance and (
                        best_cut is None or cut < best_cut
                    ):
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
        # The walk never touched a balanced state (possible with a tiny
        # alpha); repair the final incumbent instead.
        best_assignment = rebalance(graph, dict(assignment), balance_tolerance, rng)

    return SAResult(
        bisection=Bisection(graph, best_assignment),
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
