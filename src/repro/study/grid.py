"""Study grids: the (family × size × degree × width × heuristic) sweep space.

A :class:`StudyCell` is one distribution to measure: a single fixed graph
instance (named by a generator spec, so the local and remote runners
build byte-identical graphs) paired with one registry algorithm, to be
run over hundreds of independent heuristic seeds.  A :class:`StudyGrid`
is a named list of cells plus the per-cell ensemble size.

Cells carry *generator specs*, not graphs: the spec is exactly the
``POST /v1/graphs`` body of the HTTP service
(:func:`repro.service.state.graph_from_generator_spec`), which is what
makes ``--remote`` runs reproduce local aggregates bit for bit — both
sides construct the same graph from the same spec and fingerprint it to
the same content address.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.job import AlgorithmSpec
from ..engine.registry import algorithm_info
from ..graphs.generators import parity_fixed_width
from ..graphs.properties import gnp_probability_for_degree

__all__ = [
    "PRESET_NAMES",
    "StudyCell",
    "StudyGrid",
    "algorithm_specs",
    "preset_grid",
]

#: Degree sweep for the planted-vs-random phase study on ``Gbreg(2n, b, d)``:
#: at low degree the planted width-``b`` cut is not optimal (random-like
#: phase, heuristics beat it); as the degree grows every other cut inflates
#: until the planted bisection is the clear optimum (planted phase).
STUDY_GBREG_DEGREES = (2, 3, 4, 5, 6)

#: Degree sweep for the ``Gnp`` phase study, bracketing the critical mean
#: degree ``2 ln 2 ≈ 1.386`` below which the bisection width vanishes
#: (Percus et al., *The Peculiar Phase Structure of Random Graph Bisection*).
STUDY_GNP_DEGREES = (0.8, 1.1, 1.4, 1.7, 2.2, 3.0)

#: Heuristics a study may sweep (graph-domain registry names).
STUDY_ALGORITHMS = ("kl", "fm", "sa", "ckl", "csa", "greedy", "multilevel")


@dataclass(frozen=True)
class StudyCell:
    """One ensemble: a fixed generated graph × one registry algorithm."""

    family: str  # "gbreg" | "gnp"
    two_n: int
    degree: float
    width: int | None  # planted bisection width (None for Gnp)
    algorithm: AlgorithmSpec
    graph_seed: int = 0

    @property
    def label(self) -> str:
        if self.family == "gbreg":
            instance = f"Gbreg({self.two_n},{self.width},{self.degree:g})"
        else:
            instance = f"Gnp({self.two_n},deg{self.degree:g})"
        return f"{instance}x{self.algorithm.describe()}"

    @property
    def graph_key(self) -> str:
        """Generator identity: cells sharing an instance share one graph."""
        model, params = self.generator_spec()
        inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{model}({inner})"

    def generator_spec(self) -> tuple[str, dict]:
        """The service generator spec (model, params) for this cell's graph."""
        if self.family == "gbreg":
            return "gbreg", {
                "vertices": self.two_n,
                "width": self.width,
                "degree": int(self.degree),
                "seed": self.graph_seed,
            }
        if self.family == "gnp":
            return "gnp", {
                "vertices": self.two_n,
                "p": gnp_probability_for_degree(self.two_n, self.degree),
                "seed": self.graph_seed,
            }
        raise ValueError(f"unknown study family {self.family!r}")

    def build_graph(self):
        """Build this cell's graph exactly as the service would."""
        from ..service.state import graph_from_generator_spec

        model, params = self.generator_spec()
        return graph_from_generator_spec(model, params)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "family": self.family,
            "two_n": self.two_n,
            "degree": self.degree,
            "width": self.width,
            "algorithm": self.algorithm.describe(),
            "graph_seed": self.graph_seed,
        }


@dataclass(frozen=True)
class StudyGrid:
    """A named sweep: cells plus the per-cell ensemble size."""

    name: str
    cells: tuple[StudyCell, ...]
    seeds_per_cell: int

    @property
    def total_runs(self) -> int:
        return len(self.cells) * self.seeds_per_cell


def algorithm_specs(
    names: tuple[str, ...], sa_size_factor: int = 2
) -> tuple[AlgorithmSpec, ...]:
    """Registry specs for study heuristic names (validated, SA sized)."""
    specs = []
    for name in names:
        info = algorithm_info(name)  # raises KeyError on unknown names
        if info.domain != "graph":
            raise ValueError(f"study algorithms must be graph-domain, got {name!r}")
        if name in ("sa", "csa"):
            specs.append(AlgorithmSpec.make(name, size_factor=sa_size_factor))
        else:
            specs.append(AlgorithmSpec.make(name))
    return tuple(specs)


def _gbreg_cells(
    two_n: int,
    width: int,
    degrees,
    specs: tuple[AlgorithmSpec, ...],
    graph_seed: int,
) -> list[StudyCell]:
    return [
        StudyCell(
            family="gbreg",
            two_n=two_n,
            degree=float(degree),
            width=parity_fixed_width(two_n, int(degree), width),
            algorithm=spec,
            graph_seed=graph_seed,
        )
        for degree in degrees
        for spec in specs
    ]


def _gnp_cells(
    two_n: int,
    degrees,
    specs: tuple[AlgorithmSpec, ...],
    graph_seed: int,
) -> list[StudyCell]:
    return [
        StudyCell(
            family="gnp",
            two_n=two_n,
            degree=float(degree),
            width=None,
            algorithm=spec,
            graph_seed=graph_seed,
        )
        for degree in degrees
        for spec in specs
    ]


def preset_grid(
    name: str,
    two_n: int | None = None,
    algorithms: tuple[str, ...] | None = None,
    seeds_per_cell: int | None = None,
    graph_seed: int = 0,
    sa_size_factor: int = 2,
) -> StudyGrid:
    """Build a named preset grid, with optional overrides.

    * ``quick`` — 2 cells × 20 seeds (one Gbreg, one Gnp); the CI
      study-smoke sweep and the test suite's end-to-end default.
    * ``phase-sweep`` — the planted-vs-random boundary study: Gbreg
      (width 8) and Gnp degree sweeps at 2n = 500, 100 seeds per cell.
    * ``heuristics`` — every study heuristic on one Gbreg(500, 16, 3)
      instance: cross-heuristic cut-size distributions, 100 seeds each.
    """
    if name == "quick":
        two_n = two_n or 120
        specs = algorithm_specs(algorithms or ("kl",), sa_size_factor)
        cells = _gbreg_cells(two_n, 4, (3,), specs[:1], graph_seed) + _gnp_cells(
            two_n, (2.0,), specs[:1], graph_seed
        )
        return StudyGrid(name, tuple(cells), seeds_per_cell or 20)
    if name == "phase-sweep":
        two_n = two_n or 500
        specs = algorithm_specs(algorithms or ("kl",), sa_size_factor)
        cells = _gbreg_cells(
            two_n, 8, STUDY_GBREG_DEGREES, specs, graph_seed
        ) + _gnp_cells(two_n, STUDY_GNP_DEGREES, specs, graph_seed)
        return StudyGrid(name, tuple(cells), seeds_per_cell or 100)
    if name == "heuristics":
        two_n = two_n or 500
        specs = algorithm_specs(
            algorithms or ("kl", "fm", "sa", "ckl", "csa"), sa_size_factor
        )
        cells = _gbreg_cells(two_n, 16, (3,), specs, graph_seed)
        return StudyGrid(name, tuple(cells), seeds_per_cell or 100)
    raise ValueError(f"unknown study preset {name!r} (known: {', '.join(PRESET_NAMES)})")


PRESET_NAMES = ("quick", "phase-sweep", "heuristics")
