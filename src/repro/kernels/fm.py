"""The FM single-move sweep over the CSR arrays (bucket-list selection).

Each side keeps O(1) *bucket lists* instead of a lazy heap:
``buckets[side][gain + B]`` holds a min-heap of label ranks (gains are
bounded by the maximum weighted degree ``B``, so ``2B + 1`` buckets
always suffice).  A ``maxoff`` cursor per side tracks the highest
possibly-occupied bucket; pushes raise it, selection walks it down.
Walking offsets descending and popping ranks ascending visits fresh
candidates in ``(-gain, rank)`` order, so the first legal candidate
found is the best-gain, lowest-rank legal vertex.  A gain update is an
O(1) bucket push instead of an O(log n) heap sift.

The pass starts from the caller's side and gain lists, which the run
carries from pass to pass, and sweeps working copies of them: the sweep
flips sides as it goes and stops updating the gains of locked vertices.
Only the committed prefix reaches the caller's lists, through
:func:`~repro.graphs.csr.csr_flip`.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..graphs.csr import CSRGraph, csr_flip, csr_side_weights

__all__ = ["fm_pass_csr"]


def fm_pass_csr(
    csr: CSRGraph,
    carried_sides: list[int],
    carried_gains: list[int],
    strict_tol: int,
    loose_tol: int,
    stats: dict | None = None,
) -> tuple[int, int]:
    """One FM pass over CSR ids; returns ``(applied_gain, moves_kept)``.

    "Balance" throughout is the imbalance ``|w0 - w1|``.  ``applied_gain``
    is relative to the cut at pass entry and may be negative when the pass
    was used to repair balance.  ``carried_gains`` must be the move gains
    of ``carried_sides``; both are advanced past the kept moves in place.
    """
    n = csr.num_vertices
    rank = csr.rank
    by_rank = csr.by_rank
    nbrs = csr.neighbor_lists()
    unit = csr.unit_edge_weights
    wts = None if unit else csr.weight_lists()
    vweights = csr.vertex_weight_list()
    uniform_vw = csr.unit_vertex_weights
    B = csr.max_weighted_degree

    sides = carried_sides.copy()
    gains = carried_gains.copy()

    buckets: tuple[list[list[int]], list[list[int]]] = (
        [[] for _ in range(2 * B + 1)],
        [[] for _ in range(2 * B + 1)],
    )
    for i in range(n):
        buckets[sides[i]][gains[i] + B].append(rank[i])
    maxoff = [-1, -1]
    for side in (0, 1):
        for off in range(2 * B, -1, -1):
            bucket = buckets[side][off]
            if bucket:
                bucket.sort()  # sorted lists are valid rank min-heaps
                if maxoff[side] < 0:
                    maxoff[side] = off

    w0, w1 = csr_side_weights(csr, sides)
    diff = w0 - w1
    locked = bytearray(n)
    sequence: list[int] = []  # moved vertex ids in order
    running_gain = 0

    start_dev = abs(diff)
    start_balanced = start_dev <= strict_tol
    best_balanced_gain = 0 if start_balanced else None
    best_balanced_k = 0
    best_deviation = start_dev
    best_deviation_k = 0
    best_deviation_gain = 0
    stale = 0  # obs only: superseded/locked entries discarded
    stashed = 0

    def next_allowed(side: int):
        """Best unlocked, fresh, balance-legal ``(off, rank, id)`` on ``side``.

        With uniform vertex weights every candidate on a side is equally
        (il)legal, so legality is one check per call; otherwise illegal
        entries are stashed and restored.
        """
        nonlocal stale, stashed
        bks = buckets[side]
        off = maxoff[side]
        dev_cur = abs(diff)
        if uniform_vw:
            new_diff = diff - 2 if side == 0 else diff + 2
            new_dev = abs(new_diff)
            if not (new_dev <= loose_tol or new_dev < dev_cur):
                return None
            while off >= 0:
                bucket = bks[off]
                while bucket:
                    r = heappop(bucket)
                    v = by_rank[r]
                    if not locked[v] and sides[v] == side and gains[v] == off - B:
                        maxoff[side] = off
                        return off, r, v
                    stale += 1
                off -= 1
            maxoff[side] = -1
            return None
        stash: list[tuple[int, int]] = []
        found = None
        while off >= 0:
            bucket = bks[off]
            while bucket:
                r = heappop(bucket)
                v = by_rank[r]
                if locked[v] or sides[v] != side or gains[v] != off - B:
                    stale += 1
                    continue
                wv = vweights[v]
                new_diff = diff - 2 * wv if side == 0 else diff + 2 * wv
                new_dev = abs(new_diff)
                if new_dev <= loose_tol or new_dev < dev_cur:
                    found = (off, r, v)
                    break
                stash.append((off, r))
            if found is not None:
                break
            off -= 1
        top = off if found is not None else -1
        stashed += len(stash)
        for soff, sr in stash:
            heappush(bks[soff], sr)
            if soff > top:
                top = soff
        maxoff[side] = top
        return found

    while len(sequence) < n:
        cand0 = next_allowed(0)
        cand1 = next_allowed(1)
        if cand0 is None and cand1 is None:
            break
        # Only the gains are compared across sides (ranks never enter the
        # cross-side comparison), so equal gains choose side 0.
        if cand1 is None or (cand0 is not None and cand0[0] >= cand1[0]):
            chosen, other, side_v = cand0, cand1, 0
        else:
            chosen, other, side_v = cand1, cand0, 1
        if other is not None:
            ooff, orank, ov = other
            obks = buckets[sides[ov]]
            heappush(obks[ooff], orank)
            if ooff > maxoff[sides[ov]]:
                maxoff[sides[ov]] = ooff

        off, _r, v = chosen
        gain_v = off - B
        wv = vweights[v]
        locked[v] = 1
        sides[v] = 1 - side_v
        diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
        running_gain += gain_v
        sequence.append(v)

        row = nbrs[v]
        if unit:
            for u in row:
                if locked[u]:
                    continue
                g = gains[u] + (2 if sides[u] == side_v else -2)
                gains[u] = g
                su = sides[u]
                heappush(buckets[su][g + B], rank[u])
                if g + B > maxoff[su]:
                    maxoff[su] = g + B
        else:
            wrow = wts[v]
            for slot, u in enumerate(row):
                if locked[u]:
                    continue
                w2 = 2 * wrow[slot]
                g = gains[u] + (w2 if sides[u] == side_v else -w2)
                gains[u] = g
                su = sides[u]
                heappush(buckets[su][g + B], rank[u])
                if g + B > maxoff[su]:
                    maxoff[su] = g + B
        gains[v] = -gain_v

        k = len(sequence)
        dev = abs(diff)
        if dev <= strict_tol:
            if best_balanced_gain is None or running_gain > best_balanced_gain:
                best_balanced_gain = running_gain
                best_balanced_k = k
        if dev < best_deviation or (
            dev == best_deviation and running_gain > best_deviation_gain
        ):
            best_deviation = dev
            best_deviation_k = k
            best_deviation_gain = running_gain
    if best_balanced_gain is not None:
        keep, applied = best_balanced_k, best_balanced_gain
    else:
        keep, applied = best_deviation_k, best_deviation_gain
    csr_flip(csr, carried_sides, carried_gains, sequence[:keep])
    if stats is not None:
        stats["moves_considered"] = stats.get("moves_considered", 0) + len(sequence)
        stats["stale_pops"] = stats.get("stale_pops", 0) + stale
        stats["stash_restores"] = stats.get("stash_restores", 0) + stashed
    return applied, keep
