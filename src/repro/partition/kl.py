"""The Kernighan-Lin graph bisection heuristic (paper Fig. 2, [KL70]).

One *pass* (the paper's Figure 2):

1. compute every vertex's gain ``g_v`` — the cut reduction of moving ``v``
   across (edge weight to the other side minus edge weight to its own);
2. repeatedly pick the unlocked pair ``a in A, b in B`` maximizing
   ``g_ab = g_a + g_b - 2 w(a, b)``, lock it, and update neighbor gains as
   if the pair had been exchanged;
3. after all vertices are paired, find the prefix ``k`` of the pair
   sequence with the largest cumulative gain and actually exchange those
   ``k`` pairs.

Passes repeat until a pass yields no positive gain (or ``max_passes``).

Pair selection uses lazy max-heaps plus the bound ``g_ab <= g_a + g_b``:
candidates are scanned in decreasing ``g_a + g_b`` order and the scan
stops as soon as that upper bound cannot beat the best concrete pair.  On
bounded-degree graphs each selection touches O(1) candidates, making a
pass effectively ``O(|E| log |V|)`` instead of the textbook ``O(n^2)``.
Candidates examined but not chosen park in a sorted *pending* queue that
is merged with the heap on the next selection, instead of being re-pushed
(and later re-sifted) with an identical fresh tuple every round.

Weighted (contracted) graphs: to preserve exact balance, only pairs of
equal vertex weight are exchanged — each weight class gets its own pair
of heaps, and each step picks the best pair across classes.

Two implementations of the pass share this selection logic: the
label-keyed dict kernel below, and an integer-id kernel over the graph's
:class:`~repro.graphs.csr.CSRGraph` view with packed ``(gain, rank)``
integer heap keys.  The CSR kernel runs unless ``REPRO_KERNEL=dict``
and produces bit-identical results: ids follow insertion order and heap
ties break by label *rank*, which orders exactly like the dict kernel's
label comparisons.  Labels that do not sort (mixed ``int`` and ``str``)
rank in insertion order; the dict kernel cannot break ties on them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import mul

from ..graphs.csr import CSRGraph, csr_view
from ..graphs.graph import Graph
from ..kernels import kernel_backend
from ..kernels.gains import move_gains
from ..kernels.kl import kl_sequence_multi, kl_sequence_single
from ..obs import counter, span
from ..rng import resolve_rng
from .bisection import Bisection, cut_weight
from .random_init import random_assignment

__all__ = ["kernighan_lin", "kl_pass", "KLResult"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class KLResult:
    """Outcome of a Kernighan-Lin run.

    ``pass_gains[i]`` is the cut improvement applied by pass ``i``; the
    final (zero-gain) pass that triggers termination is not recorded.
    """

    bisection: Bisection
    initial_cut: int
    passes: int
    pass_gains: list[int] = field(default_factory=list)
    swaps: int = 0

    @property
    def cut(self) -> int:
        return self.bisection.cut

    def cut_trace(self) -> list[int]:
        """Cut after each applied pass: ``[initial, after pass 1, ...]``.

        The verification oracles check this trace is monotone non-increasing
        and that its last entry matches the recomputed final cut.
        """
        trace = [self.initial_cut]
        for gain in self.pass_gains:
            trace.append(trace[-1] - gain)
        return trace


# -- dict kernel -------------------------------------------------------------------


class _SelectState:
    """Per-weight-class selection state: a lazy max-heap per side, plus a
    sorted *pending* queue of already-popped, still-fresh candidates.

    ``next_entry`` yields entries in globally ascending ``(-gain, v)``
    order by merging the two: pending holds candidates a previous
    selection examined and did not choose, so returning them costs O(1)
    instead of a ``heappush``/``heappop`` round trip per selection round.
    """

    __slots__ = ("heaps", "pending", "stale", "candidates", "prune_hits")

    def __init__(self) -> None:
        self.heaps: tuple[list, list] = ([], [])
        self.pending: tuple[deque, deque] = (deque(), deque())
        self.stale = 0  # superseded heap entries discarded (obs only)
        self.candidates = 0  # entries examined across selections (obs only)
        self.prune_hits = 0  # selections settled by the two top pops (obs only)

    def push(self, side: int, gain: int, v) -> None:
        heappush(self.heaps[side], (-gain, v))

    def next_entry(self, side: int, gains: dict, locked: set):
        """The next unlocked, non-stale ``(-gain, v)`` entry on ``side`` (or None)."""
        heap = self.heaps[side]
        pend = self.pending[side]
        while True:
            if pend:
                entry = heappop(heap) if heap and heap[0] < pend[0] else pend.popleft()
            elif heap:
                entry = heappop(heap)
            else:
                return None
            neg_gain, v = entry
            if v not in locked and gains[v] == -neg_gain:
                return entry
            self.stale += 1

    def park(self, side: int, entries: list, chosen) -> None:
        """Return unchosen popped entries (ascending order) to the pending front."""
        self.pending[side].extendleft(
            entry for entry in reversed(entries) if entry[1] is not chosen
        )


def _select_pair(state: _SelectState, gains: dict, locked: set, graph: Graph):
    """Best unlocked pair (a on side 0, b on side 1) within one weight class.

    Returns ``(pair_gain, a, b)`` or ``None`` when the class cannot supply
    a pair.  Examined-but-unchosen candidates are parked back on the
    state's pending queues (gains unchanged, so the popped entries stay
    valid as-is — only stale entries ever leave the structure for good).
    """
    a_cands: list = []
    b_cands: list = []

    def extend(side: int, cands: list) -> bool:
        entry = state.next_entry(side, gains, locked)
        if entry is None:
            return False
        cands.append(entry)
        return True

    if not extend(0, a_cands) or not extend(1, b_cands):
        state.candidates += len(a_cands) + len(b_cands)
        state.park(0, a_cands, None)
        state.park(1, b_cands, None)
        return None

    best_gain = _NEG_INF
    best_a = best_b = None
    top_b_gain = -b_cands[0][0]

    i = 0
    while i < len(a_cands):
        a = a_cands[i][1]
        gain_a = -a_cands[i][0]
        if best_a is not None and gain_a + top_b_gain <= best_gain:
            break
        adj_a = graph.adjacency(a)
        j = 0
        while True:
            if j >= len(b_cands) and not extend(1, b_cands):
                break
            b = b_cands[j][1]
            upper = gain_a - b_cands[j][0]
            if best_a is not None and upper <= best_gain:
                break
            pair_gain = upper - 2 * adj_a.get(b, 0)
            if pair_gain > best_gain:
                best_gain, best_a, best_b = pair_gain, a, b
            j += 1
        i += 1
        if i == len(a_cands):
            # Pull the next A candidate only if it could still matter.
            if not extend(0, a_cands):
                break
            if -a_cands[-1][0] + top_b_gain <= best_gain:
                break

    state.candidates += len(a_cands) + len(b_cands)
    if len(a_cands) + len(b_cands) == 2:
        state.prune_hits += 1
    state.park(0, a_cands, best_a)
    state.park(1, b_cands, best_b)
    if best_a is None:
        return None
    return best_gain, best_a, best_b


def _kl_pass_dict(
    graph: Graph, assignment: dict, stats: dict | None = None
) -> tuple[int, int]:
    """One KL pass over the dict-of-dicts adjacency (reference kernel)."""
    gains: dict = {}
    for v in graph.vertices():
        side_v = assignment[v]
        g = 0
        for u, w in graph.neighbor_items(v):
            g += w if assignment[u] != side_v else -w
        gains[v] = g

    weight_of = graph.vertex_weight
    states: dict[int, _SelectState] = {}
    for v in graph.vertices():
        state = states.setdefault(weight_of(v), _SelectState())
        state.push(assignment[v], gains[v], v)

    locked: set = set()
    sequence: list[tuple] = []  # (a, b, pair_gain)

    while True:
        best = None  # (gain, a, b, state)
        for state in states.values():
            selected = _select_pair(state, gains, locked, graph)
            if selected is None:
                continue
            gain, a, b = selected
            if best is None or gain > best[0]:
                if best is not None:
                    # Un-choose the previous class's pair: push its pair back.
                    _, pa, pb, pstate = best
                    pstate.push(assignment[pa], gains[pa], pa)
                    pstate.push(assignment[pb], gains[pb], pb)
                best = (gain, a, b, state)
            else:
                state.push(assignment[a], gains[a], a)
                state.push(assignment[b], gains[b], b)
        if best is None:
            break

        gain, a, b, _state = best
        locked.add(a)
        locked.add(b)
        sequence.append((a, b, gain))

        # Update gains as if (a, b) were exchanged (paper Fig. 2 lines 6-8).
        for moved in (a, b):
            side_moved = assignment[moved]
            for u, w in graph.neighbor_items(moved):
                if u in locked:
                    continue
                # "moved" leaves u's side or arrives on it.
                gains[u] += 2 * w if assignment[u] == side_moved else -2 * w
                states[weight_of(u)].push(assignment[u], gains[u], u)

    # Paper Fig. 2 line 9: best prefix of the pair sequence.
    best_total = 0
    best_k = 0
    running = 0
    for k, (_, _, gain) in enumerate(sequence, start=1):
        running += gain
        if running > best_total:
            best_total = running
            best_k = k
    for a, b, _ in sequence[:best_k]:
        assignment[a], assignment[b] = assignment[b], assignment[a]
    if stats is not None:
        _accumulate_pass_stats(
            stats,
            selections=len(sequence),
            stale=sum(s.stale for s in states.values()),
            candidates=sum(s.candidates for s in states.values()),
            prune_hits=sum(s.prune_hits for s in states.values()),
        )
    return best_total, best_k


def _accumulate_pass_stats(
    stats: dict, *, selections: int, stale: int, candidates: int, prune_hits: int
) -> None:
    stats["selections"] = stats.get("selections", 0) + selections
    stats["stale_pops"] = stats.get("stale_pops", 0) + stale
    stats["candidates"] = stats.get("candidates", 0) + candidates
    stats["prune_hits"] = stats.get("prune_hits", 0) + prune_hits


# -- CSR kernel --------------------------------------------------------------------
#
# The packed-key selection kernels live in :mod:`repro.kernels.kl`; this
# module owns the pass framing (gain init, best-prefix application) and
# the backend dispatch.


def _kl_pass_csr(
    csr: CSRGraph, assignment: dict, stats: dict | None, backend: str
) -> tuple[int, int]:
    """One KL pass over the CSR arrays; decision-identical to ``_kl_pass_dict``."""
    sides = csr.sides_list(assignment)
    gains = move_gains(csr, sides, backend)
    if csr.unit_vertex_weights or len(csr.weight_classes()[1]) == 1:
        sequence = kl_sequence_single(csr, sides, gains, stats)
    else:
        sequence = kl_sequence_multi(csr, sides, gains, stats)

    best_total = 0
    best_k = 0
    running = 0
    for k, (_, _, gain) in enumerate(sequence, start=1):
        running += gain
        if running > best_total:
            best_total = running
            best_k = k
    labels = csr.labels
    for a, b, _ in sequence[:best_k]:
        la, lb = labels[a], labels[b]
        assignment[la], assignment[lb] = assignment[lb], assignment[la]
    return best_total, best_k


def kl_pass(
    graph: Graph, assignment: dict, stats: dict | None = None
) -> tuple[int, int]:
    """Run one Kernighan-Lin pass, mutating ``assignment``.

    Returns ``(applied_gain, swaps_applied)``: the cut reduction achieved
    by exchanging the best prefix of the pair sequence, and the number of
    pairs exchanged (0 when the pass found no improvement).

    ``stats``, when given, accumulates selection-machinery counts
    (``selections`` / ``stale_pops`` / ``candidates`` / ``prune_hits``)
    for the observability layer; it never influences the pass.

    Dispatches to the CSR kernel when enabled (see module docstring);
    both kernels make identical decisions, so the choice never changes
    the result.
    """
    backend = kernel_backend()
    if backend != "dict":
        return _kl_pass_csr(csr_view(graph), assignment, stats, backend)
    return _kl_pass_dict(graph, assignment, stats)


def kernighan_lin(
    graph: Graph,
    init: Bisection | None = None,
    rng: random.Random | int | None = None,
    max_passes: int | None = None,
) -> KLResult:
    """Bisect ``graph`` with Kernighan-Lin.

    ``init`` supplies the starting bisection (the compaction pipeline uses
    this to seed KL with the projected coarse solution); otherwise a random
    balanced bisection drawn from ``rng`` is used.  Passes run until one
    yields no improvement, or ``max_passes``.
    """
    if graph.num_vertices == 0:
        raise ValueError("cannot bisect the empty graph")
    if init is not None:
        if init.graph is not graph and init.graph != graph:
            raise ValueError("init bisection belongs to a different graph")
        assignment = init.assignment()
    else:
        assignment = random_assignment(graph, resolve_rng(rng))

    if kernel_backend() != "dict":
        csr_view(graph)  # compile once up front; cut_weight reuses it

    initial_cut = cut_weight(graph, assignment)
    cut = initial_cut
    pass_gains: list[int] = []
    swaps = 0
    passes = 0
    stats: dict[str, int] = {}
    with span("kl.run", vertices=graph.num_vertices):
        while max_passes is None or passes < max_passes:
            with span("kl.pass"):
                gain, applied = kl_pass(graph, assignment, stats)
            passes += 1
            if applied == 0:
                break
            cut -= gain
            swaps += applied
            pass_gains.append(gain)

    counter("kl_runs_total").inc()
    counter("kl_passes_total").inc(passes)
    counter("kl_swaps_total").inc(swaps)
    counter("kl_selections_total").inc(stats.get("selections", 0))
    counter("kl_stale_pops_total").inc(stats.get("stale_pops", 0))
    counter("kl_candidates_total").inc(stats.get("candidates", 0))
    counter("kl_prune_hits_total").inc(stats.get("prune_hits", 0))

    result = Bisection(graph, assignment)
    assert result.cut == cut, "incremental cut diverged from recomputation"
    return KLResult(
        bisection=result,
        initial_cut=initial_cut,
        passes=passes,
        pass_gains=pass_gains,
        swaps=swaps,
    )
