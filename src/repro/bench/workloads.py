"""Workload definitions for every paper table, with a scale knob.

The paper's sweeps run to 5000 vertices with C on a VAX 780; pure Python
reproduces the same *shapes* at a smaller default scale.  Set the
``REPRO_SCALE`` environment variable to pick:

* ``smoke``  — seconds; used by the test suite's end-to-end checks.
* ``ci``     — the default; minutes for the full bench suite.  Graph
  sizes in the low hundreds-to-thousand, 1 seed per parameter point.
* ``paper``  — the paper's actual sizes (2000- and 5000-vertex tables,
  3 seeds per ``Gbreg`` point, 7 per ``Gnp`` point).  Hours in pure
  Python; run it for the full EXPERIMENTS.md regeneration.

Every workload case is a :class:`WorkloadCase`: a label, the expected
bisection width (``None`` when the model does not plant one), and a
deterministic graph builder.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass

from ..engine.job import AlgorithmSpec
from ..graphs.generators import (
    binary_tree,
    g2set_with_degree,
    gbreg,
    gnp_with_degree,
    grid_graph,
    ladder_graph,
    parity_fixed_width,
)
from ..graphs.graph import Graph

__all__ = [
    "Scale",
    "WorkloadCase",
    "current_scale",
    "standard_algorithm_specs",
    "netlist_algorithm_specs",
    "gbreg_cases",
    "g2set_cases",
    "gnp_cases",
    "ladder_cases",
    "grid_cases",
    "btree_cases",
    "netlist_cases",
]


@dataclass(frozen=True)
class Scale:
    """Experiment sizing for one scale tier."""

    name: str
    random_graph_sizes: tuple[int, ...]  # 2n for Gbreg / G2set / Gnp tables
    seeds_per_point: int
    gnp_seeds_per_point: int
    starts: int
    sa_size_factor: int
    special_sizes: tuple[int, ...]  # approximate vertex counts for specials
    gbreg_widths: tuple[int, ...]  # planted-b sweep (filtered for parity)
    g2set_widths: tuple[int, ...]


_SCALES = {
    "smoke": Scale(
        name="smoke",
        random_graph_sizes=(120,),
        seeds_per_point=1,
        gnp_seeds_per_point=1,
        starts=1,
        sa_size_factor=2,
        special_sizes=(64,),
        gbreg_widths=(2, 8),
        g2set_widths=(8,),
    ),
    "ci": Scale(
        name="ci",
        random_graph_sizes=(500,),
        seeds_per_point=1,
        gnp_seeds_per_point=2,
        starts=2,
        sa_size_factor=4,
        special_sizes=(100, 484),
        gbreg_widths=(2, 4, 8, 16),
        g2set_widths=(4, 8, 16),
    ),
    "paper": Scale(
        name="paper",
        random_graph_sizes=(2000, 5000),
        seeds_per_point=3,
        gnp_seeds_per_point=7,
        starts=2,
        sa_size_factor=8,
        special_sizes=(100, 484, 1024, 5000),
        gbreg_widths=(2, 4, 8, 16, 32, 64),
        g2set_widths=(4, 8, 16, 32, 64),
    ),
}


def current_scale() -> Scale:
    """The active :class:`Scale`, from ``REPRO_SCALE`` (default ``ci``)."""
    name = os.environ.get("REPRO_SCALE", "ci").lower()
    if name not in _SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_SCALES)}, got {name!r}")
    return _SCALES[name]


def standard_algorithm_specs(
    scale: Scale, include_sa: bool = True
) -> dict[str, AlgorithmSpec]:
    """The paper's four procedures as engine :class:`AlgorithmSpec` values.

    SA and CSA carry the scale tier's temperature length
    (``size_factor * |V|``); set ``include_sa=False`` for the KL-only
    sweeps (SA dominates wall time, exactly as the paper found).
    """
    specs = {
        "kl": AlgorithmSpec.make("kl"),
        "ckl": AlgorithmSpec.make("ckl"),
    }
    if include_sa:
        specs["sa"] = AlgorithmSpec.make("sa", size_factor=scale.sa_size_factor)
        specs["csa"] = AlgorithmSpec.make("csa", size_factor=scale.sa_size_factor)
    return specs


@dataclass(frozen=True)
class WorkloadCase:
    """A parameter point: label, planted width (or None), graph builder."""

    label: str
    expected_b: int | None
    build: Callable[[random.Random], Graph]


def gbreg_cases(scale: Scale, degree: int) -> list[WorkloadCase]:
    """``Gbreg(2n, b, d)`` sweep (appendix tables, d = 3 and d = 4)."""
    cases = []
    for two_n in scale.random_graph_sizes:
        widths = sorted(
            {parity_fixed_width(two_n, degree, b) for b in scale.gbreg_widths}
        )
        for b in widths:
            for seed in range(scale.seeds_per_point):
                cases.append(
                    WorkloadCase(
                        label=f"Gbreg({two_n},{b},{degree})",
                        expected_b=b,
                        build=(
                            lambda rng, two_n=two_n, b=b: gbreg(two_n, b, degree, rng).graph
                        ),
                    )
                )
                del seed  # seeds differ via the runner's per-case child rng
    return cases


def g2set_cases(scale: Scale, avg_degree: float) -> list[WorkloadCase]:
    """``G2set(2n, pA, pB, b)`` sweep at one average degree (appendix tables)."""
    cases = []
    for two_n in scale.random_graph_sizes:
        for b in scale.g2set_widths:
            for seed in range(scale.seeds_per_point):
                cases.append(
                    WorkloadCase(
                        label=f"G2set({two_n},deg{avg_degree},{b})",
                        expected_b=b,
                        build=(
                            lambda rng, two_n=two_n, b=b: g2set_with_degree(
                                two_n, avg_degree, b, rng
                            ).graph
                        ),
                    )
                )
                del seed
    return cases


def gnp_cases(scale: Scale) -> list[WorkloadCase]:
    """``Gnp(2n, p)`` degree sweep (appendix Gnp tables, no planted width)."""
    cases = []
    for two_n in scale.random_graph_sizes:
        for avg_degree in (1.5, 2.0, 2.5, 3.0, 4.0):
            for seed in range(scale.gnp_seeds_per_point):
                cases.append(
                    WorkloadCase(
                        label=f"Gnp({two_n},deg{avg_degree})",
                        expected_b=None,
                        build=(
                            lambda rng, two_n=two_n, deg=avg_degree: gnp_with_degree(
                                two_n, deg, rng
                            )
                        ),
                    )
                )
                del seed
    return cases


def ladder_cases(scale: Scale) -> list[WorkloadCase]:
    """Ladder graphs (appendix "Ladder graphs" table; optimum cut is 2)."""
    return [
        WorkloadCase(
            label=f"ladder({size})",
            expected_b=2,
            build=(lambda rng, rungs=size // 2: ladder_graph(rungs)),
        )
        for size in scale.special_sizes
        if size >= 8
    ]


def grid_cases(scale: Scale) -> list[WorkloadCase]:
    """Square grids (appendix "Grid graphs" table; optimum cut is the side)."""
    cases = []
    for size in scale.special_sizes:
        side = max(int(round(size**0.5)), 2)
        if side % 2:
            side += 1  # even side => an exactly balanced straight cut exists
        cases.append(
            WorkloadCase(
                label=f"grid({side}x{side})",
                expected_b=side,
                build=(lambda rng, side=side: grid_graph(side, side)),
            )
        )
    return cases


def netlist_cases(scale: Scale) -> list[WorkloadCase]:
    """Clustered synthetic netlists (the VLSI-domain extension workload).

    Cases build :class:`~repro.hypergraph.Hypergraph` objects; pair them
    with :func:`netlist_algorithm_specs` (graph algorithms do not apply).
    """
    from ..hypergraph.generators import random_netlist

    cases = []
    for two_n in scale.random_graph_sizes:
        for seed in range(scale.seeds_per_point):
            cases.append(
                WorkloadCase(
                    label=f"netlist({two_n})",
                    expected_b=None,
                    build=(lambda rng, cells=two_n: random_netlist(cells, rng=rng)),
                )
            )
            del seed
    return cases


def netlist_algorithm_specs(scale: Scale) -> dict[str, AlgorithmSpec]:
    """Netlist bisectors as engine specs.

    ``hfm``/``chfm`` mirror KL/CKL (plain and compacted local search).
    ``scale`` is accepted for symmetry with the graph workloads; the
    netlist bisectors run with their defaults at every scale.
    """
    return {
        "hfm": AlgorithmSpec.make("hfm"),
        "chfm": AlgorithmSpec.make("chfm"),
    }


def btree_cases(scale: Scale) -> list[WorkloadCase]:
    """Binary trees (appendix "Binary trees" table; no planted width)."""
    return [
        WorkloadCase(
            label=f"btree({size})",
            expected_b=None,
            build=(lambda rng, n=size: binary_tree(n)),
        )
        for size in scale.special_sizes
        if size >= 16
    ]
