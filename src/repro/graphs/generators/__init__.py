"""Graph generators: the paper's three random models plus special families.

* :func:`gnp` — ``Gnp(2n, p)`` (Erdos-Renyi),
* :func:`g2set` — ``G2set(2n, pA, pB, bis)`` (planted bisection),
* :func:`gbreg` — ``Gbreg(2n, b, d)`` (regular with planted bisection width,
  the [BCLS87] model most of the paper's experiments use),
* special families: grids, ladders, binary trees, cycles, ... (Section VI).

:func:`generate_graph` maps a model name and named parameters to one of
these; it is the one dispatcher behind ``repro-bisect generate`` and the
service's ``POST /v1/graphs``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..graph import Graph

from .bregular import BisectionRegularGraph, feasible_bisection_widths, gbreg
from .gnp import gnp, gnp_with_degree
from .planted import PlantedGraph, g2set, g2set_with_degree
from .regular import random_regular_graph, sample_with_degrees
from .special import (
    binary_tree,
    caterpillar_graph,
    circular_ladder_graph,
    complete_binary_tree,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_cycles,
    grid_graph,
    hypercube_graph,
    ladder_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from .trees import prufer_decode, random_tree

__all__ = [
    "GENERATOR_DEFAULTS",
    "generate_graph",
    "gnp",
    "gnp_with_degree",
    "g2set",
    "g2set_with_degree",
    "PlantedGraph",
    "gbreg",
    "BisectionRegularGraph",
    "feasible_bisection_widths",
    "random_regular_graph",
    "sample_with_degrees",
    "path_graph",
    "cycle_graph",
    "ladder_graph",
    "circular_ladder_graph",
    "grid_graph",
    "binary_tree",
    "complete_binary_tree",
    "disjoint_cycles",
    "complete_graph",
    "complete_bipartite_graph",
    "star_graph",
    "caterpillar_graph",
    "torus_graph",
    "hypercube_graph",
    "random_tree",
    "prufer_decode",
]

#: The models :func:`generate_graph` knows, each with its parameters'
#: defaults.  ``repro-bisect generate`` always passes every parameter of
#: its model, so only the service falls back on these.
GENERATOR_DEFAULTS: dict[str, dict[str, Any]] = {
    "gbreg": {"vertices": 100, "width": 4, "degree": 3, "seed": 0},
    "g2set": {"vertices": 100, "p": 0.03, "width": 4, "seed": 0},
    "gnp": {"vertices": 100, "p": 0.05, "seed": 0},
    "ladder": {"vertices": 100},
    "grid": {"vertices": 100},
    "btree": {"vertices": 63},
}

_PARAMETER_TYPES = {"vertices": int, "width": int, "degree": int, "seed": int, "p": float}


def generate_graph(model: str, params: Mapping[str, Any] | None = None) -> Graph:
    """Build a ``model`` graph from named parameters (see :data:`GENERATOR_DEFAULTS`).

    ``vertices`` is the vertex count (2n); ``ladder`` and ``grid`` round
    it to two rails and a square.  Raises :class:`ValueError` for an
    unknown model or parameter, a value of the wrong type, or a value the
    generator rejects.

    >>> generate_graph("ladder", {"vertices": 8}).num_vertices
    8
    """
    if model not in GENERATOR_DEFAULTS:
        known = ", ".join(sorted(GENERATOR_DEFAULTS))
        raise ValueError(f"unknown generator {model!r} (known: {known})")
    merged = {**GENERATOR_DEFAULTS[model], **(params or {})}
    unknown = set(merged) - set(GENERATOR_DEFAULTS[model])
    if unknown:
        raise ValueError(f"unknown {model} parameter(s): {', '.join(sorted(unknown))}")
    try:
        args = {name: _PARAMETER_TYPES[name](value) for name, value in merged.items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {model} parameters: {exc}") from exc
    vertices = args["vertices"]
    if model == "gbreg":
        return gbreg(vertices, args["width"], args["degree"], args["seed"]).graph
    if model == "g2set":
        return g2set(vertices, args["p"], args["p"], args["width"], args["seed"]).graph
    if model == "gnp":
        return gnp(vertices, args["p"], args["seed"])
    if model == "ladder":
        return ladder_graph(vertices // 2)
    if model == "grid":
        side = int(round(vertices**0.5))
        return grid_graph(side, side)
    return binary_tree(vertices)
