"""The KL pair-selection kernel over the CSR arrays (packed integer keys).

Heap entries are single ints: ``key = (B - gain) * n + rank``, where B is
the graph's maximum weighted degree (a bound on |gain| at all times) and
rank orders ids by label.  Ascending int order is exactly ascending
``(-gain, rank)`` order — at one machine-int comparison per sift
instead of a tuple compare.

Selection only has to *return* the defined pair, not pop entries in a
fixed order: the chosen pair is a pure function of the current
gains/locked state (argmax in (gain desc, rank asc) scan order with
strict improvement), and stale heap entries are inert until discarded.
That freedom lets the kernel check the ``g_ab <= g_a + g_b`` bound
*before* pulling another candidate, so on sparse graphs — where the two
top candidates are usually not adjacent and therefore already optimal —
a selection costs exactly two pops and one adjacency probe: a scan of the
first pop's neighbour row for the second, since no row lists a neighbour
twice.  Only an adjacent pair on a weighted graph also reads ``w(a, b)``
from the parallel weight row.

Only pairs of equal vertex weight may be exchanged, so every weight class
has its own heaps and pending queues; a graph of unit or uniform vertex
weights is the one-class case.  Two batch-level refinements keep a step
cheap:

* a ``curkey`` freshness array — ``curkey[v]`` is v's only live packed
  key (or -1 once locked), making the staleness test one list index and
  one int compare instead of a lock probe plus a gain recompute with an
  integer division.  It is also the only gain state a step updates, so
  the ``gains`` argument just seeds it;
* an allocation-free fast path for the two-pop selection (the common
  case the ``prune_hits`` counter measures): when the two top candidates
  are not adjacent, the class's pair is settled without materializing
  candidate lists or touching the pending queues.

The sequence stops at the first step after which no later prefix can
strictly beat the best prefix so far (see :func:`kl_sequence`).  The
bound it uses, the cut weight among locked vertices, costs one compare per
locked neighbour, which the gain update already visits.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..graphs.csr import CSRGraph

__all__ = ["kl_sequence"]


def kl_sequence(
    csr: CSRGraph,
    sides: list[int],
    gains: list[int],
    cut: int,
    stats: dict | None = None,
):
    """The pass's pair sequence ``[(a, b, pair_gain), ...]`` over CSR ids.

    ``cut`` is the cut weight of ``sides``.  The sequence ends early once
    the cut among locked vertices reaches ``cut - best``, ``best`` being
    the best prefix gain so far: every locked vertex counts as swapped, so
    an edge between two of them keeps its pass-start cut state in every
    later prefix, and no later prefix can strictly beat the best one.

    Each weight class keeps a ``(heap0, pend0, heap1, pend1)`` queue tuple;
    classes are numbered in order of first appearance (see
    :meth:`CSRGraph.weight_classes`).  Each step selects the best pair of
    every class, in id order, keeps the first strict maximum, and returns
    the other classes' pairs to their queues.  A class whose queue tops
    cannot beat the best pair so far is not examined at all: it could not
    change the pick, so the sequence is the same, only the obs counters
    count less work.  ``gains`` is read, not modified.
    """
    n = csr.num_vertices
    rank = csr.rank
    by_rank = csr.by_rank
    nbrs = csr.neighbor_lists()
    unit = csr.unit_edge_weights
    wts = None if unit else csr.weight_lists()
    B = csr.max_weighted_degree
    if csr.unit_vertex_weights:
        class_of, class_weights = [0] * n, [1]
    else:
        class_of, class_weights = csr.weight_classes()

    curkey = [(B - gains[i]) * n + rank[i] for i in range(n)]
    queues = [([], deque(), [], deque()) for _ in class_weights]
    # Sides and classes are fixed for the whole pass, so is each vertex's heap.
    heap_of = [queues[class_of[i]][2 * sides[i]] for i in range(n)]
    for i in range(n):
        heap_of[i].append(curkey[i])
    for heap0, _, heap1, _ in queues:
        heap0.sort()  # a sorted list is a valid heap; cheaper than n sifts
        heap1.sort()

    n2 = 2 * n
    sequence: list[tuple[int, int, int]] = []  # (a, b, pair_gain)
    push = heappush
    pop = heappop
    locked_cut = 0  # weight of pass-start cut edges between locked vertices
    running = best = 0  # prefix gains: the last one and the largest so far
    stale = 0  # obs only: superseded entries discarded on the slow path
    candidates = 0
    prune_hits = 0

    while True:
        pick = None  # queue tuple of the best pair so far in this step
        for queue in queues:
            heap0, pend0, heap1, pend1 = queue
            if pick is not None:
                # The smallest queued key per side, fresh or stale, bounds
                # the class's best pair gain from above; a class that
                # cannot strictly beat the pick is skipped unpopped.
                if not ((heap0 or pend0) and (heap1 or pend1)):
                    continue
                top0 = min(heap0[0], pend0[0]) if heap0 and pend0 else (heap0 or pend0)[0]
                top1 = min(heap1[0], pend1[0]) if heap1 and pend1 else (heap1 or pend1)[0]
                if (B - top0 // n) + (B - top1 // n) <= pick_gain:
                    continue
            # Top unlocked, non-stale candidate on each side (heap/pending merge).
            while True:
                if pend0:
                    ak = pop(heap0) if heap0 and heap0[0] < pend0[0] else pend0.popleft()
                elif heap0:
                    ak = pop(heap0)
                else:
                    ak = -1
                    break
                va = by_rank[ak % n]
                if curkey[va] == ak:
                    break
                stale += 1
            if ak < 0:
                continue
            while True:
                if pend1:
                    bk = pop(heap1) if heap1 and heap1[0] < pend1[0] else pend1.popleft()
                elif heap1:
                    bk = pop(heap1)
                else:
                    bk = -1
                    break
                vb = by_rank[bk % n]
                if curkey[vb] == bk:
                    break
                stale += 1
            if bk < 0:
                pend0.appendleft(ak)
                continue

            row = nbrs[va]
            if vb not in row:
                # Non-adjacent tops: g_ab == g_a + g_b is already the upper
                # bound for every other pair of the class, so its pick is
                # settled by the two pops alone — no candidate lists, no
                # parking.
                candidates += 2
                prune_hits += 1
                best_gain = (B - ak // n) + (B - bk // n)
            else:
                gain_a = B - ak // n
                top_b_gain = B - bk // n
                w_ab = 1 if unit else wts[va][row.index(vb)]
                best_gain = gain_a + top_b_gain - 2 * w_ab
                best_ak, best_bk = ak, bk
                a_keys = [ak]
                b_keys = [bk]

                # Top pair is adjacent: scan in (g_a desc, g_b desc) order
                # until the g_a + g_b upper bound can no longer beat the
                # best pair.
                i = 0
                while True:
                    if i == len(a_keys):
                        if B - a_keys[-1] // n + top_b_gain <= best_gain:
                            break
                        ak, dropped = _next_fresh(heap0, pend0, curkey, by_rank, n)
                        stale += dropped
                        if ak < 0:
                            break
                        a_keys.append(ak)
                    ak = a_keys[i]
                    gain_a = B - ak // n
                    if gain_a + top_b_gain <= best_gain:
                        break
                    va = by_rank[ak % n]
                    row = nbrs[va]
                    j = 0
                    while True:
                        if j == len(b_keys):
                            if gain_a + (B - b_keys[-1] // n) <= best_gain:
                                break
                            bk, dropped = _next_fresh(heap1, pend1, curkey, by_rank, n)
                            stale += dropped
                            if bk < 0:
                                break
                            b_keys.append(bk)
                        bk = b_keys[j]
                        upper = gain_a + B - bk // n
                        if upper <= best_gain:
                            break
                        pair_gain = upper
                        vb = by_rank[bk % n]
                        if vb in row:
                            pair_gain -= 2 if unit else 2 * wts[va][row.index(vb)]
                        if pair_gain > best_gain:
                            best_gain, best_ak, best_bk = pair_gain, ak, bk
                        j += 1
                    i += 1

                candidates += len(a_keys) + len(b_keys)
                if len(a_keys) + len(b_keys) == 2:
                    prune_hits += 1
                if len(a_keys) > 1 or a_keys[0] != best_ak:
                    pend0.extendleft(k for k in reversed(a_keys) if k != best_ak)
                if len(b_keys) > 1 or b_keys[0] != best_bk:
                    pend1.extendleft(k for k in reversed(b_keys) if k != best_bk)
                va = by_rank[best_ak % n]
                vb = by_rank[best_bk % n]

            # A popped pair stays fresh until locked: curkey[va] is its key.
            if pick is None or best_gain > pick_gain:
                if pick is not None:
                    # Un-choose the previous class's pair.
                    _requeue(pick[0], pick[1], curkey[a])
                    _requeue(pick[2], pick[3], curkey[b])
                pick, pick_gain, a, b = queue, best_gain, va, vb
            else:
                _requeue(heap0, pend0, curkey[va])
                _requeue(heap1, pend1, curkey[vb])
        if pick is None:
            break

        curkey[a] = curkey[b] = -1
        sequence.append((a, b, pick_gain))
        running += pick_gain
        if running > best:
            best = running
        # The edge a-b is seen from both ends below.
        row = nbrs[a]
        if b in row:
            locked_cut -= 1 if unit else wts[a][row.index(b)]

        # A gain change of +-2w moves the key by -+2w * n; locked keys are -1.
        for moved in (a, b):
            side_moved = sides[moved]
            row = nbrs[moved]
            if unit:
                for u in row:
                    key = curkey[u]
                    if key < 0:
                        if sides[u] != side_moved:
                            locked_cut += 1
                        continue
                    key += -n2 if sides[u] == side_moved else n2
                    curkey[u] = key
                    push(heap_of[u], key)
            else:
                wrow = wts[moved]
                for slot, u in enumerate(row):
                    key = curkey[u]
                    if key < 0:
                        if sides[u] != side_moved:
                            locked_cut += wrow[slot]
                        continue
                    step = n2 * wrow[slot]
                    key += -step if sides[u] == side_moved else step
                    curkey[u] = key
                    push(heap_of[u], key)
        if locked_cut >= cut - best:
            break

    if stats is not None:
        for name, value in (
            ("selections", len(sequence)),
            ("stale_pops", stale),
            ("candidates", candidates),
            ("prune_hits", prune_hits),
        ):
            stats[name] = stats.get(name, 0) + value
    return sequence


def _next_fresh(
    heap: list[int], pend: deque, curkey: list[int], by_rank: list[int], n: int
) -> tuple[int, int]:
    """Pop a side's next fresh key (-1 once empty) and count the stale ones dropped.

    The scan's slow path; the two top-of-side pops of a step inline the same loop.
    """
    stale = 0
    while True:
        if pend:
            key = heappop(heap) if heap and heap[0] < pend[0] else pend.popleft()
        elif heap:
            key = heappop(heap)
        else:
            return -1, stale
        if curkey[by_rank[key % n]] == key:
            return key, stale
        stale += 1


def _requeue(heap: list[int], pend: deque, key: int) -> None:
    """Return a popped, still-fresh key to its side's queues.

    The pending queue must stay sorted, so the key goes to its front when
    it is no larger than the front (always true for a top-of-side pop),
    and onto the heap otherwise.  Both sources merge into one ascending
    stream, so the choice never changes which key pops next.
    """
    if pend and pend[0] < key:
        heappush(heap, key)
    else:
        pend.appendleft(key)
