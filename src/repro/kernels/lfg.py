"""Bulk generation for the lagged-Fibonacci stream (x[n] = x[n-24] + x[n-55]).

The SA flip sweep consumes one raw 64-bit value per index draw (plus one
per uphill move), millions per run.  Drawing them through
:class:`~repro.rng.LaggedFibonacciRandom` costs a ring-buffer store and
wrap check per value even when inlined; generating them in *blocks* ahead
of the walk amortizes that to a handful of C-level big-int operations per
24 values: the stream is packed into ints of 24 lanes, one 64-bit lane
per value, and each chunk of the recurrence is a lane-wise add.

The block values are exactly the values the generator would produce —
the recurrence is a pure function of the last 55 outputs — and
:func:`restore_state` writes the generator's ring table/index to the
state it would have reached after consuming ``total`` values, so code
running after the sweep (``rebalance`` draws, a second algorithm on the
same rng) sees an indistinguishable generator.
"""

from __future__ import annotations

import sys
from array import array

from ..rng import LaggedFibonacciRandom

__all__ = [
    "fill_block",
    "history",
    "restore_state",
]

if array("Q").itemsize != 8:  # pragma: no cover - no such CPython platform today
    raise ImportError("repro.kernels.lfg needs an 8-byte array('Q') item")

# One 64-bit lane per stream value, lane 0 the least significant, 24
# lanes (the short lag) to a chunk.  LO keeps the low 63 bits of each
# lane of a chunk, HI their top bits: adding two LO-masked chunks cannot
# carry across a lane, and the dropped top bits are put back with XOR
# (top-bit addition mod 2**64).
_CHUNK_BITS = 64 * 24
_CHUNK = (1 << _CHUNK_BITS) - 1
_HI = sum(1 << (64 * k + 63) for k in range(24))
_LO = _CHUNK ^ _HI


def history(rng: LaggedFibonacciRandom) -> list[int]:
    """The generator's last 55 outputs, oldest first.

    ``rng._table[rng._index]`` is the slot about to be overwritten — the
    oldest live value — so reading the ring forward from ``_index`` yields
    the outputs in generation order.
    """
    table = rng._table
    idx = rng._index
    return [table[(idx + k) % 55] for k in range(55)]


def fill_block(hist: list[int], count: int) -> tuple[list[int], list[int]]:
    """Generate ``>= count`` next stream values from ``hist`` (55, oldest first).

    Returns ``(values, new_hist)`` where ``new_hist`` is the trailing 55
    values ready for the next call.  Values come in chunks of 24 — the
    short lag — because within a chunk every output depends only on
    values already in ``hist``, which makes the chunk one lane-wise add
    of two packed 24-lane ints.
    """
    # Behind 17 zero lanes the history is three whole chunks c3, c2, c1,
    # oldest first.  For the next chunk, x[n-24] is c1 and x[n-55] is
    # lanes 17..40 of c3:c2; the masks drop the lanes above 23.
    w = sum(value << (64 * k) for k, value in enumerate(hist, 17))
    c3, c2, c1 = w & _CHUNK, (w >> _CHUNK_BITS) & _CHUNK, w >> (2 * _CHUNK_BITS)
    parts = []
    for _ in range(-(-count // 24)):
        b = (c3 >> (64 * 17)) | (c2 << (64 * 7))
        chunk = ((c1 & _LO) + (b & _LO)) ^ ((c1 ^ b) & _HI)
        parts.append(chunk.to_bytes(192, "little"))
        c3, c2, c1 = c2, c1, chunk
    words = array("Q", b"".join(parts))
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts only
        words.byteswap()
    values = words.tolist()
    return values, (hist + values)[-55:]


def restore_state(
    rng: LaggedFibonacciRandom, idx0: int, total: int, window: list[int]
) -> None:
    """Advance ``rng`` to the state after consuming ``total`` stream values.

    ``idx0`` is ``rng._index`` at the moment :func:`history` was taken and
    ``window`` holds the last ``min(total, 55)`` *consumed* values in
    order.  Ring slot ``(idx0 + m) % 55`` carries stream value ``m``;
    slots older than the window still hold their pre-sweep values, which
    are exactly stream values ``m < 0`` — already correct.
    """
    if total <= 0:
        return
    table = rng._table
    start = total - len(window)
    for k, value in enumerate(window):
        table[(idx0 + start + k) % 55] = value
    rng._index = (idx0 + total) % 55
