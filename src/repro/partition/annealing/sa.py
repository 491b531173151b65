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

The walks run over the graph's CSR view (:mod:`repro.kernels.sa`); the
start state's cut, side weights and move gains come straight from the
CSR recounts of :mod:`repro.graphs.csr`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul

from ...graphs.csr import CSRGraph, csr_cut_weight, csr_side_weights, csr_view
from ...graphs.graph import Graph
from ...kernels.sa import flip_walk, swap_walk
from ...obs import counter, gauge, histogram, obs_enabled, span
from ...obs.metrics import RATIO_BUCKETS
from ...rng import resolve_rng
from ..bisection import Bisection, default_tolerance, rebalance
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


def _sample_t0(
    csr: CSRGraph,
    sides: list[int],
    diff: int,
    cost: BalanceCost,
    schedule: AnnealingSchedule,
    rng: random.Random,
) -> float:
    """Estimate T0 from the uphill deltas of a burst of random trial flips.

    Each trial draws ``rng.randrange(n)`` and scores that vertex's flip
    through ``cost.move_delta`` against the initial state; no trial is
    applied.
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
        # cut_delta is (same-side weight) - (other-side weight).
        cut_delta = wdeg[i] - 2 * s1 if sides[i] == 0 else 2 * s1 - wdeg[i]
        signed_weight = vweights[i] if sides[i] == 0 else -vweights[i]
        delta = cost.move_delta(cut_delta, diff, signed_weight)
        if delta > 0:
            deltas.append(delta)
    return estimate_initial_temperature(deltas, schedule.initial_acceptance)


def _anneal_csr(
    graph: Graph,
    assignment: dict,
    rng: random.Random,
    schedule: AnnealingSchedule,
    cost: BalanceCost,
    balance_tolerance: int,
    neighborhood: str,
    record_trace: bool,
) -> SAResult:
    """The Metropolis walk over the CSR view, flip or swap moves.

    Vertex ids follow insertion order, so the index draws of T0 sampling
    and of the walk pick vertices in a label-independent way.  The sweeps
    live in :mod:`repro.kernels.sa`; this wrapper owns the framing —
    initial state, T0 sampling, and the result envelope.
    """
    csr = csr_view(graph)
    sides = csr.sides_list(assignment)

    cut = csr_cut_weight(csr, sides)
    initial_cut = cut
    w0, w1 = csr_side_weights(csr, sides)
    diff = w0 - w1
    initial_imbalance = abs(diff)

    temperature = _sample_t0(csr, sides, diff, cost, schedule, rng)

    args = (
        csr, sides, cut, diff, temperature, rng, schedule, cost.alpha,
        balance_tolerance, record_trace,
    )
    walk = flip_walk(*args) if neighborhood == "flip" else swap_walk(*args)

    if walk.best_sides is None:
        # The walk never touched a balanced state (possible with a tiny
        # alpha); repair the final incumbent instead.
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

    Both neighborhoods run on the graph's CSR view.
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
    elif balance_tolerance < 0:
        raise ValueError(f"balance_tolerance must be nonnegative, got {balance_tolerance}")

    if init is not None:
        if init.graph is not graph and init.graph != graph:
            raise ValueError("init bisection belongs to a different graph")
        assignment = init.assignment()
    else:
        assignment = random_assignment(graph, rng)

    return _anneal_csr(
        graph, assignment, rng, schedule, cost, balance_tolerance, neighborhood,
        record_trace,
    )
