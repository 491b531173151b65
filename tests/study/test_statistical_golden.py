"""Golden distribution pins: the `statistical` regression tier.

Each test runs a seeded 50-run ensemble through the study path and
asserts the full distribution summary *exactly*.  Everything in the
chain is deterministic — the generator builds one fixed graph, the seed
protocol is a pure function of the master seed, and the accumulator's
exact regime computes its summary from a sorted value table — so any
drift in KL/SA behaviour (a reordered sweep, an off-by-one pass bound, a
changed tie-break) fails these like any other regression, with the whole
shape of the distribution as the witness.

Excluded from the default run by the ``statistical`` marker; CI's
study-smoke job runs ``pytest -m statistical``.
"""

from __future__ import annotations

import pytest

from repro.engine import AlgorithmSpec
from repro.study import StudyGrid, preset_grid, run_study_local
from repro.study.grid import StudyCell

pytestmark = pytest.mark.statistical

MASTER_SEED = 2026
SEEDS = 50


def _summaries(grid):
    outcome = run_study_local(grid, master_seed=MASTER_SEED)
    return {
        cell.label: stats.summary()
        for cell, stats in zip(grid.cells, outcome.cell_stats)
    }


def test_kl_and_sa_distributions_on_gbreg_500_16_3():
    grid = preset_grid("heuristics", algorithms=("kl", "sa"), seeds_per_cell=SEEDS)
    assert _summaries(grid) == {
        # KL alone on d=3: never finds the planted width-16 cut; a tight
        # unimodal distribution around ~6x the planted width.
        "Gbreg(500,16,3)xkl": {
            "count": 50,
            "max": 112,
            "mean": 96.92,
            "min": 82,
            "q05": 84.0,
            "q25": 92.0,
            "q50": 98.0,
            "q75": 102.0,
            "q95": 106.0,
            "std": 6.859642402,
        },
        # SA (size_factor 2): bimodal — runs either reach the planted
        # region (~16) or freeze high, exactly the cut-size statistics
        # Schreiber & Martin describe.
        "Gbreg(500,16,3)xsa(size_factor=2)": {
            "count": 50,
            "max": 84,
            "mean": 46.04,
            "min": 16,
            "q05": 16.0,
            "q25": 18.0,
            "q50": 41.0,
            "q75": 72.0,
            "q95": 83.1,
            "std": 27.178893371,
        },
    }


def test_kl_distribution_on_gbreg_500_8_4():
    # At d=4 the planted cut dominates: KL lands on width 8 in most runs
    # (median and both hinge quantiles sit exactly at the planted width),
    # with a heavy upper tail of stuck runs.
    cell = StudyCell(
        family="gbreg",
        two_n=500,
        degree=4.0,
        width=8,
        algorithm=AlgorithmSpec.make("kl"),
        graph_seed=0,
    )
    grid = StudyGrid("golden-d4", (cell,), SEEDS)
    assert _summaries(grid) == {
        "Gbreg(500,8,4)xkl": {
            "count": 50,
            "max": 156,
            "mean": 10.96,
            "min": 8,
            "q05": 8.0,
            "q25": 8.0,
            "q50": 8.0,
            "q75": 8.0,
            "q95": 8.0,
            "std": 20.930360723,
        }
    }
