"""KL pair-selection kernels over the CSR arrays (packed integer keys).

Heap entries are single ints: ``key = (B - gain) * n + rank``, where B is
the graph's maximum weighted degree (a bound on |gain| at all times) and
rank orders ids by label.  Ascending int order is exactly ascending
``(-gain, rank)`` order — at one machine-int comparison per sift
instead of a tuple compare.

Selection only has to *return* the defined pair, not pop entries in a
fixed order: the chosen pair is a pure function of the current
gains/locked state (argmax in (gain desc, rank asc) scan order with
strict improvement), and stale heap entries are inert until discarded.
That freedom lets these kernels check the ``g_ab <= g_a + g_b`` bound
*before* pulling another candidate, so on sparse graphs — where the two
top candidates are usually not adjacent and therefore already optimal —
a selection costs exactly two pops and one adjacency probe.

Two batch-level refinements, shared by the single-class kernel and the
multi-class one contracted graphs use:

* a ``curkey`` freshness array — ``curkey[v]`` is v's only live packed
  key (or -1 once locked), making the staleness test one list index and
  one int compare instead of a lock probe plus a gain recompute with an
  integer division;
* an allocation-free fast path for the two-pop selection (the common
  case the ``prune_hits`` counter measures): when the two top candidates
  are not adjacent, the pair is emitted without materializing candidate
  lists or touching the pending queues.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..graphs.csr import CSRGraph

__all__ = ["kl_sequence_multi", "kl_sequence_single"]


def _accumulate(stats: dict, selections: int, stale: int, candidates: int,
                prune_hits: int) -> None:
    stats["selections"] = stats.get("selections", 0) + selections
    stats["stale_pops"] = stats.get("stale_pops", 0) + stale
    stats["candidates"] = stats.get("candidates", 0) + candidates
    stats["prune_hits"] = stats.get("prune_hits", 0) + prune_hits


def kl_sequence_single(
    csr: CSRGraph, sides: list[int], gains: list[int], stats: dict | None = None
):
    """Pair sequence for the single-weight-class case, fully inlined."""
    n = csr.num_vertices
    rank = csr.rank
    by_rank = csr.by_rank
    nbrs = csr.neighbor_lists()
    unit = csr.unit_edge_weights
    wts = None if unit else csr.weight_lists()
    adj_maps = csr.adjacency_maps()
    B = csr.max_weighted_degree

    curkey = [(B - gains[i]) * n + rank[i] for i in range(n)]
    heap0: list[int] = []
    heap1: list[int] = []
    for i in range(n):
        (heap1 if sides[i] else heap0).append(curkey[i])
    heap0.sort()  # a sorted list is a valid heap; cheaper than n sifts
    heap1.sort()
    pend0: deque = deque()
    pend1: deque = deque()

    locked = bytearray(n)
    sequence: list[tuple[int, int, int]] = []  # (a, b, pair_gain)
    push = heappush
    pop = heappop
    stale = 0  # obs only: superseded entries discarded on the slow path
    candidates = 0
    prune_hits = 0

    while True:
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
            break
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
            break

        adj_va = adj_maps[va]
        w_ab = adj_va.get(vb, 0)
        if not w_ab:
            # Non-adjacent tops: g_ab == g_a + g_b is already the upper
            # bound for every other pair, so this selection is settled by
            # the two pops alone — no candidate lists, no parking.
            candidates += 2
            prune_hits += 1
            best_gain = (B - ak // n) + (B - bk // n)
            a = va
            b = vb
        else:
            gain_a = B - ak // n
            top_b_gain = B - bk // n
            best_gain = gain_a + top_b_gain - 2 * w_ab
            best_ak, best_bk = ak, bk
            a_keys = [ak]
            b_keys = [bk]

            # Top pair is adjacent: scan in (g_a desc, g_b desc) order until
            # the g_a + g_b upper bound can no longer beat the best pair.
            i = 0
            while True:
                if i == len(a_keys):
                    if B - a_keys[-1] // n + top_b_gain <= best_gain:
                        break
                    while True:  # pull the next a candidate
                        if pend0:
                            ak = (
                                pop(heap0)
                                if heap0 and heap0[0] < pend0[0]
                                else pend0.popleft()
                            )
                        elif heap0:
                            ak = pop(heap0)
                        else:
                            ak = -1
                            break
                        if curkey[by_rank[ak % n]] == ak:
                            break
                        stale += 1
                    if ak < 0:
                        break
                    a_keys.append(ak)
                ak = a_keys[i]
                gain_a = B - ak // n
                if gain_a + top_b_gain <= best_gain:
                    break
                adj_a = adj_maps[by_rank[ak % n]]
                j = 0
                while True:
                    if j == len(b_keys):
                        if gain_a + (B - b_keys[-1] // n) <= best_gain:
                            break
                        while True:  # pull the next b candidate
                            if pend1:
                                bk = (
                                    pop(heap1)
                                    if heap1 and heap1[0] < pend1[0]
                                    else pend1.popleft()
                                )
                            elif heap1:
                                bk = pop(heap1)
                            else:
                                bk = -1
                                break
                            if curkey[by_rank[bk % n]] == bk:
                                break
                            stale += 1
                        if bk < 0:
                            break
                        b_keys.append(bk)
                    bk = b_keys[j]
                    upper = gain_a + B - bk // n
                    if upper <= best_gain:
                        break
                    pair_gain = upper - 2 * adj_a.get(by_rank[bk % n], 0)
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

            a = by_rank[best_ak % n]
            b = by_rank[best_bk % n]

        locked[a] = locked[b] = 1
        curkey[a] = curkey[b] = -1
        sequence.append((a, b, best_gain))

        for moved in (a, b):
            side_moved = sides[moved]
            row = nbrs[moved]
            if unit:
                for u in row:
                    if locked[u]:
                        continue
                    g = gains[u] + (2 if sides[u] == side_moved else -2)
                    gains[u] = g
                    key = (B - g) * n + rank[u]
                    curkey[u] = key
                    push(heap1 if sides[u] else heap0, key)
            else:
                wrow = wts[moved]
                for slot, u in enumerate(row):
                    if locked[u]:
                        continue
                    w2 = 2 * wrow[slot]
                    g = gains[u] + (w2 if sides[u] == side_moved else -w2)
                    gains[u] = g
                    key = (B - g) * n + rank[u]
                    curkey[u] = key
                    push(heap1 if sides[u] else heap0, key)

    if stats is not None:
        _accumulate(stats, len(sequence), stale, candidates, prune_hits)
    return sequence


def kl_sequence_multi(
    csr: CSRGraph, sides: list[int], gains: list[int], stats: dict | None = None
):
    """Pair sequence with per-vertex-weight classes (contracted graphs).

    Only pairs of equal vertex weight may be exchanged, so every weight
    class has its own heaps and pending queues, held in flat lists indexed
    by class id (ids in order of first appearance, see
    :meth:`CSRGraph.weight_classes`).  Each step selects the best pair of
    every class, in id order, with the single-class kernel's machinery,
    keeps the first strict maximum, and returns the other classes' pairs
    to their queues.  A class whose queue tops cannot beat the best pair
    so far is not examined at all: it could not change the pick, so the
    sequence is the same, only the obs counters count less work.
    """
    n = csr.num_vertices
    rank = csr.rank
    by_rank = csr.by_rank
    nbrs = csr.neighbor_lists()
    unit = csr.unit_edge_weights
    wts = None if unit else csr.weight_lists()
    adj_maps = csr.adjacency_maps()
    class_of, class_weights = csr.weight_classes()
    classes = range(len(class_weights))
    B = csr.max_weighted_degree

    curkey = [(B - gains[i]) * n + rank[i] for i in range(n)]
    heaps0: list[list[int]] = [[] for _ in classes]
    heaps1: list[list[int]] = [[] for _ in classes]
    # Sides and classes are fixed for the whole pass, so is each vertex's heap.
    heap_of = [(heaps1 if sides[i] else heaps0)[class_of[i]] for i in range(n)]
    for i in range(n):
        heap_of[i].append(curkey[i])
    for heap in heaps0 + heaps1:
        heap.sort()
    pends0: list[deque] = [deque() for _ in classes]
    pends1: list[deque] = [deque() for _ in classes]

    locked = bytearray(n)
    sequence: list[tuple[int, int, int]] = []
    push = heappush
    pop = heappop
    stale = 0  # obs only, as in the single-class kernel
    candidates = 0
    prune_hits = 0

    while True:
        pick_class = -1  # class of the best pair so far in this step
        for c in classes:
            heap0 = heaps0[c]
            pend0 = pends0[c]
            heap1 = heaps1[c]
            pend1 = pends1[c]
            if pick_class >= 0:
                # The smallest queued key per side, fresh or stale, bounds
                # the class's best pair gain from above; a class that
                # cannot strictly beat the pick is skipped unpopped.
                if not ((heap0 or pend0) and (heap1 or pend1)):
                    continue
                top0 = min(heap0[0], pend0[0]) if heap0 and pend0 else (heap0 or pend0)[0]
                top1 = min(heap1[0], pend1[0]) if heap1 and pend1 else (heap1 or pend1)[0]
                if (B - top0 // n) + (B - top1 // n) <= pick_gain:
                    continue
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
                candidates += 1
                continue

            w_ab = adj_maps[va].get(vb, 0)
            if not w_ab:
                # Non-adjacent tops settle the class with two pops.
                candidates += 2
                prune_hits += 1
                best_gain = (B - ak // n) + (B - bk // n)
            else:
                gain_a = B - ak // n
                top_b_gain = B - bk // n
                best_gain = gain_a + top_b_gain - 2 * w_ab
                best_ak, best_bk = ak, bk
                a_keys = [ak]
                b_keys = [bk]

                # Same bounded scan as the single-class kernel.
                i = 0
                while True:
                    if i == len(a_keys):
                        if B - a_keys[-1] // n + top_b_gain <= best_gain:
                            break
                        while True:  # pull the next a candidate
                            if pend0:
                                ak = (
                                    pop(heap0)
                                    if heap0 and heap0[0] < pend0[0]
                                    else pend0.popleft()
                                )
                            elif heap0:
                                ak = pop(heap0)
                            else:
                                ak = -1
                                break
                            if curkey[by_rank[ak % n]] == ak:
                                break
                            stale += 1
                        if ak < 0:
                            break
                        a_keys.append(ak)
                    ak = a_keys[i]
                    gain_a = B - ak // n
                    if gain_a + top_b_gain <= best_gain:
                        break
                    adj_a = adj_maps[by_rank[ak % n]]
                    j = 0
                    while True:
                        if j == len(b_keys):
                            if gain_a + (B - b_keys[-1] // n) <= best_gain:
                                break
                            while True:  # pull the next b candidate
                                if pend1:
                                    bk = (
                                        pop(heap1)
                                        if heap1 and heap1[0] < pend1[0]
                                        else pend1.popleft()
                                    )
                                elif heap1:
                                    bk = pop(heap1)
                                else:
                                    bk = -1
                                    break
                                if curkey[by_rank[bk % n]] == bk:
                                    break
                                stale += 1
                            if bk < 0:
                                break
                            b_keys.append(bk)
                        bk = b_keys[j]
                        upper = gain_a + B - bk // n
                        if upper <= best_gain:
                            break
                        pair_gain = upper - 2 * adj_a.get(by_rank[bk % n], 0)
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
                ak, bk = best_ak, best_bk

            if pick_class < 0 or best_gain > pick_gain:
                if pick_class >= 0:
                    # Un-choose the previous class's pair.
                    _requeue(heaps0[pick_class], pends0[pick_class], pick_ak)
                    _requeue(heaps1[pick_class], pends1[pick_class], pick_bk)
                pick_gain, pick_ak, pick_bk, pick_class = best_gain, ak, bk, c
            else:
                _requeue(heap0, pend0, ak)
                _requeue(heap1, pend1, bk)
        if pick_class < 0:
            break

        a = by_rank[pick_ak % n]
        b = by_rank[pick_bk % n]
        locked[a] = locked[b] = 1
        curkey[a] = curkey[b] = -1
        sequence.append((a, b, pick_gain))

        for moved in (a, b):
            side_moved = sides[moved]
            row = nbrs[moved]
            if unit:
                for u in row:
                    if locked[u]:
                        continue
                    g = gains[u] + (2 if sides[u] == side_moved else -2)
                    gains[u] = g
                    key = (B - g) * n + rank[u]
                    curkey[u] = key
                    push(heap_of[u], key)
            else:
                wrow = wts[moved]
                for slot, u in enumerate(row):
                    if locked[u]:
                        continue
                    w2 = 2 * wrow[slot]
                    g = gains[u] + (w2 if sides[u] == side_moved else -w2)
                    gains[u] = g
                    key = (B - g) * n + rank[u]
                    curkey[u] = key
                    push(heap_of[u], key)

    if stats is not None:
        _accumulate(stats, len(sequence), stale, candidates, prune_hits)
    return sequence


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
