"""The SA Metropolis sweeps over the CSR arrays: flip and swap moves.

The flip walk is the hottest loop in the package (1.4M attempted moves
per run at 2n=5000).  Two layers of batching remove per-move overhead
without changing a decision:

* **Buffered RNG stream.**  When the generator is our lagged Fibonacci,
  raw 64-bit values are produced in blocks by packed 64-bit-lane int adds
  (:func:`repro.rng.fill_block`) instead of through the ring
  buffer per draw; the generator state is restored exactly afterwards.
  Index draws use the same shift/reject scheme as ``_randbelow``; the
  uniform draw compares the raw 53-bit mantissa against
  ``exp(-delta/T) * 2**53`` — multiplying both sides of
  ``(value >> 11) * 2**-53 >= exp(...)`` by the power of two is exact in
  IEEE double arithmetic, so the comparison is bitwise
  ``rng.random()``'s.
* **Per-temperature threshold tables.**  On unit-vertex-weight graphs a
  flip's cost delta is ``cut_delta + alpha * (4 -+ 4*diff)``: the same
  product of ``alpha`` with the same integer, hence the same float, as
  the weighted-graph expression ``alpha * (new_diff**2 - diff**2)``.
  So for one temperature the acceptance threshold depends only on
  ``(diff, side, cut_delta)``, and ``|cut_delta|`` is at most the
  maximum weighted degree ``B``.  Each temperature keeps, per visited
  ``diff``, one list per side indexed by ``cut_delta + B``, filled
  lazily: ``-1.0`` for a downhill move (accepted without a draw),
  otherwise ``exp(-delta/T) * 2**53``.  An attempted move is one list
  lookup, and ``exp`` runs at most once per entry (about 1.5k calls per
  run at 2n=5000).  Graphs with ``B`` above ``_MAX_TABLE_DEGREE`` (very
  heavy edges), whose tables would be large, and graphs with vertex
  weights keep a per-temperature memo keyed by the float ``delta``.
  ``math.exp`` is always the decision source — never ``np.exp``, which
  is not guaranteed bit-identical.

The generic flip sweep (non-lagged-Fibonacci generators) consumes the
same ``_randbelow``/``random`` draws inline.  The swap walk (exchange one
vertex from each side) is not batched: it draws through
``rng.randrange``/``rng.random`` directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import mul

from ..graphs.csr import CSRGraph, csr_move_gains
from ..rng import (
    BLOCK,
    LaggedFibonacciRandom,
    fill_block,
    history,
    restore_state,
    tail_window,
)

__all__ = ["SAWalk", "flip_walk", "swap_walk"]

_TWO53 = 9007199254740992.0
_MAX_TABLE_DEGREE = 1 << 10  # heavier edges keep the float-keyed memo


@dataclass
class SAWalk:
    """Raw outcome of a Metropolis sweep (id-indexed; no label types).

    ``best_sides`` is ``None`` when the walk never visited a balanced
    state; ``sides`` is the final (possibly unbalanced) configuration the
    caller can repair.
    """

    sides: list[int]
    best_sides: list[int] | None
    cut: int
    attempted: int
    accepted: int
    temperatures: int
    final_temperature: float
    trace: list[tuple[float, float, int]] = field(default_factory=list)


def flip_walk(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: random.Random,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
) -> SAWalk:
    """Run the annealing flip walk to freezing; mutates and returns ``sides``."""
    if type(rng) is LaggedFibonacciRandom:
        return _flip_walk_buffered(
            csr, sides, cut, diff, temperature, rng, schedule, alpha,
            balance_tolerance, record_trace,
        )
    return _flip_walk_generic(
        csr, sides, cut, diff, temperature, rng, schedule, alpha,
        balance_tolerance, record_trace,
    )


def _flip_walk_buffered(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: LaggedFibonacciRandom,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
) -> SAWalk:
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    vweights = csr.vertex_weight_list()
    unit_vw = csr.unit_vertex_weights

    best_cut = cut if abs(diff) <= balance_tolerance else None
    best_sides = sides.copy() if best_cut is not None else None

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)
    if cutoff is None:
        cutoff = moves_per_temp + 1  # sentinel: never reached

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    exp = math.exp
    kbits = n.bit_length()
    shift = 64 - kbits

    idx0 = rng._index
    hist = history(rng)  # the 55 values before ``buf``
    buf, after = fill_block(hist, BLOCK)
    blen = len(buf)
    p = 0
    consumed = 0  # values consumed before the current block

    def refill() -> None:
        nonlocal buf, blen, p, hist, after, consumed
        consumed += p
        hist = after
        buf, after = fill_block(hist, BLOCK)
        blen = len(buf)
        p = 0

    cdelta = [-g for g in csr_move_gains(csr, sides)]
    B = csr.max_weighted_degree
    tabled = unit_vw and B <= _MAX_TABLE_DEGREE
    width = 2 * B + 1  # cut deltas -B..B

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        if tabled:
            attempted_here = moves_per_temp
            # tables[diff][side][cdelta + B]: the acceptance threshold of
            # that flip at this temperature; None until first needed.
            tables: dict[int, tuple[list, list]] = {}
            tabs = tables[diff] = ([None] * width, [None] * width)
            for k in range(moves_per_temp):
                while True:  # rejection-sample an index, as _randbelow does
                    if p >= blen:
                        refill()
                    value = buf[p]
                    p += 1
                    i = value >> shift
                    if i < n:
                        break
                side_v = sides[i]
                cut_delta = cdelta[i]
                thr = tabs[side_v][cut_delta + B]
                if thr is None:
                    d4 = 4 * diff
                    delta = cut_delta + alpha * (4 - d4 if side_v == 0 else 4 + d4)
                    thr = exp(-delta / temperature) * _TWO53 if delta > 0 else -1.0
                    tabs[side_v][cut_delta + B] = thr
                if thr >= 0.0:  # uphill: one uniform draw decides
                    if p >= blen:
                        refill()
                    u53 = buf[p] >> 11
                    p += 1
                    if u53 >= thr:
                        continue
                sides[i] = 1 - side_v
                cut += cut_delta
                diff = diff - 2 if side_v == 0 else diff + 2
                tabs = tables.get(diff)
                if tabs is None:
                    tabs = tables[diff] = ([None] * width, [None] * width)
                cdelta[i] = -cut_delta
                row = nbrs[i]
                if wts is None:
                    for u in row:
                        cdelta[u] += -2 if sides[u] == side_v else 2
                else:
                    wrow = wts[i]
                    for slot, u in enumerate(row):
                        w2 = 2 * wrow[slot]
                        cdelta[u] += -w2 if sides[u] == side_v else w2
                if abs(diff) <= balance_tolerance and (
                    best_cut is None or cut < best_cut
                ):
                    best_cut = cut
                    best_sides = sides.copy()
                    improved_best = True
                accepted_here += 1
                if accepted_here >= cutoff:
                    attempted_here = k + 1
                    break  # Johnson's cutoff: this temperature equilibrated
        else:
            memo: dict[float, float] = {}
            memo_get = memo.get
            for _ in range(moves_per_temp):
                if accepted_here >= cutoff:
                    break
                attempted_here += 1
                while True:
                    if p >= blen:
                        refill()
                    value = buf[p]
                    p += 1
                    i = value >> shift
                    if i < n:
                        break
                side_v = sides[i]
                cut_delta = cdelta[i]
                wv = vweights[i]
                new_diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
                delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
                if delta > 0:
                    if p >= blen:
                        refill()
                    u53 = buf[p] >> 11
                    p += 1
                    thr = memo_get(delta)
                    if thr is None:
                        thr = exp(-delta / temperature) * _TWO53
                        memo[delta] = thr
                    if u53 >= thr:
                        continue
                sides[i] = 1 - side_v
                cut += cut_delta
                diff = new_diff
                accepted_here += 1
                cdelta[i] = -cut_delta
                row = nbrs[i]
                if wts is None:
                    for u in row:
                        cdelta[u] += -2 if sides[u] == side_v else 2
                else:
                    wrow = wts[i]
                    for slot, u in enumerate(row):
                        w2 = 2 * wrow[slot]
                        cdelta[u] += -w2 if sides[u] == side_v else w2
                if abs(diff) <= balance_tolerance and (
                    best_cut is None or cut < best_cut
                ):
                    best_cut = cut
                    best_sides = sides.copy()
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

    restore_state(rng, idx0, consumed + p, tail_window(hist, buf, p))

    return SAWalk(
        sides=sides,
        best_sides=best_sides,
        cut=cut,
        attempted=attempted,
        accepted=accepted,
        temperatures=temperatures,
        final_temperature=temperature,
        trace=trace,
    )


def _flip_walk_generic(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: random.Random,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
) -> SAWalk:
    """The sweep for arbitrary generators (``random.Random`` et al.).

    Draws one ``rng._randbelow(n)`` per attempt and one ``rng.random()``
    per uphill delta, the same stream the buffered sweep replays.
    """
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    vweights = csr.vertex_weight_list()

    best_cut = cut if abs(diff) <= balance_tolerance else None
    best_sides = sides.copy() if best_cut is not None else None

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    rand = rng.random
    # randrange(n) delegates to _randbelow(n) for positive int n in every
    # random.Random; binding it directly skips the wrapper.
    randbelow = rng._randbelow
    exp = math.exp

    cdelta = [-g for g in csr_move_gains(csr, sides)]

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        for _ in range(moves_per_temp):
            if cutoff is not None and accepted_here >= cutoff:
                break  # Johnson's cutoff: this temperature equilibrated
            attempted_here += 1
            i = randbelow(n)
            side_v = sides[i]
            cut_delta = cdelta[i]
            wv = vweights[i]
            new_diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
            delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
            if delta > 0:
                if rand() >= exp(-delta / temperature):
                    continue
            sides[i] = 1 - side_v
            cut += cut_delta
            diff = new_diff
            accepted_here += 1
            cdelta[i] = -cut_delta
            row = nbrs[i]
            if wts is None:
                for u in row:
                    cdelta[u] += -2 if sides[u] == side_v else 2
            else:
                wrow = wts[i]
                for slot, u in enumerate(row):
                    w2 = 2 * wrow[slot]
                    cdelta[u] += -w2 if sides[u] == side_v else w2
            if abs(diff) <= balance_tolerance and (
                best_cut is None or cut < best_cut
            ):
                best_cut = cut
                best_sides = sides.copy()
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

    return SAWalk(
        sides=sides,
        best_sides=best_sides,
        cut=cut,
        attempted=attempted,
        accepted=accepted,
        temperatures=temperatures,
        final_temperature=temperature,
        trace=trace,
    )


def swap_walk(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: random.Random,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
) -> SAWalk:
    """Run the annealing swap walk to freezing; mutates and returns ``sides``.

    Each move exchanges ``a`` (side 0) with ``b`` (side 1), drawn by
    ``rng.randrange`` over per-side id lists built in id order; an
    accepted swap trades the two list slots in place.  The swap cut delta
    is both flip deltas plus ``2 w(a, b)`` (the shared edge stays cut),
    read off ``a``'s neighbour row.
    """
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    wdeg = csr.weighted_degrees()
    vweights = csr.vertex_weight_list()
    sides_get = sides.__getitem__

    side_lists: tuple[list[int], list[int]] = ([], [])
    for i, side in enumerate(sides):
        side_lists[side].append(i)
    left, right = side_lists
    if not left or not right:
        raise ValueError("swap neighborhood needs vertices on both sides")

    def side1_weight(i: int) -> int:
        if wts is None:
            return sum(map(sides_get, nbrs[i]))
        return sum(map(mul, wts[i], map(sides_get, nbrs[i])))

    best_cut = cut if abs(diff) <= balance_tolerance else None
    best_sides = sides.copy() if best_cut is not None else None

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    rand = rng.random
    randrange = rng.randrange
    exp = math.exp

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        for _ in range(moves_per_temp):
            if cutoff is not None and accepted_here >= cutoff:
                break  # Johnson's cutoff: this temperature equilibrated
            attempted_here += 1
            i = randrange(len(left))
            j = randrange(len(right))
            a = left[i]
            b = right[j]
            # Flip deltas: (same-side weight) - (other-side weight).
            cut_delta = wdeg[a] - 2 * side1_weight(a) + 2 * side1_weight(b) - wdeg[b]
            row = nbrs[a]
            if b in row:
                cut_delta += 2 if wts is None else 2 * wts[a][row.index(b)]
            new_diff = diff - 2 * vweights[a] + 2 * vweights[b]
            delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
            if delta > 0:
                if rand() >= exp(-delta / temperature):
                    continue
            sides[a] = 1
            sides[b] = 0
            left[i] = b
            right[j] = a
            cut += cut_delta
            diff = new_diff
            accepted_here += 1
            if abs(diff) <= balance_tolerance and (
                best_cut is None or cut < best_cut
            ):
                best_cut = cut
                best_sides = sides.copy()
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

    return SAWalk(
        sides=sides,
        best_sides=best_sides,
        cut=cut,
        attempted=attempted,
        accepted=accepted,
        temperatures=temperatures,
        final_temperature=temperature,
        trace=trace,
    )
