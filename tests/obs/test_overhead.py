"""Instrumentation overhead stays negligible on a small KL workload.

The design target is <=5% overhead with REPRO_OBS=1 (counters are plain
local ints flushed once per pass; spans are per-pass, never per-move).
Wall-clock assertions on shared CI boxes are noisy, so this smoke test
times a KL run long enough (~10 ms) that one scheduler hiccup is a small
fraction of it, interleaves the bare and instrumented repetitions so a
slow stretch of the machine hits both alike, alternates which of the two
runs first in each repeat so neither always pays for a cold start, takes
the best of each and asserts a deliberately loose bound — it exists to
catch accidental per-move instrumentation (which shows up as 2-10x, not
1.05x), not to measure the 5% target precisely.
"""

from __future__ import annotations

import time

from repro.graphs.generators import gbreg
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom

REPEATS = 10
LOOSE_BOUND = 1.25


def _wall(monkeypatch, obs_value):
    monkeypatch.setenv("REPRO_OBS", obs_value)
    graph = gbreg(1000, 8, 3, LaggedFibonacciRandom(0)).graph
    began = time.perf_counter()
    kernighan_lin(graph, rng=0)
    return time.perf_counter() - began


def test_kl_overhead_stays_small(monkeypatch):
    walls = {"0": [], "1": []}
    for repeat in range(REPEATS):
        for obs_value in ("0", "1") if repeat % 2 == 0 else ("1", "0"):
            walls[obs_value].append(_wall(monkeypatch, obs_value))
    off, on = min(walls["0"]), min(walls["1"])
    assert on <= off * LOOSE_BOUND, (
        f"instrumented KL run took {on:.4f}s vs {off:.4f}s bare "
        f"({on / off:.2f}x > {LOOSE_BOUND}x bound)"
    )
