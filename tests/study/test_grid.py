"""Study grid construction: presets, overrides, parity, and spec parity."""

from __future__ import annotations

import pytest

from repro.engine.job import AlgorithmSpec
from repro.service.state import graph_from_generator_spec
from repro.study import PRESET_NAMES, preset_grid
from repro.study.grid import algorithm_specs


def test_preset_names_all_build():
    for name in PRESET_NAMES:
        grid = preset_grid(name)
        assert grid.cells
        assert grid.seeds_per_cell >= 20
        assert grid.total_runs == len(grid.cells) * grid.seeds_per_cell


def test_quick_preset_is_two_cells():
    grid = preset_grid("quick")
    assert len(grid.cells) == 2
    assert {cell.family for cell in grid.cells} == {"gbreg", "gnp"}


def test_phase_sweep_covers_both_degree_sweeps():
    grid = preset_grid("phase-sweep")
    gbreg_degrees = sorted(
        c.degree for c in grid.cells if c.family == "gbreg"
    )
    gnp_degrees = sorted(c.degree for c in grid.cells if c.family == "gnp")
    assert gbreg_degrees == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert gnp_degrees == [0.8, 1.1, 1.4, 1.7, 2.2, 3.0]
    assert all(c.two_n == 500 for c in grid.cells)
    assert grid.seeds_per_cell == 100


def test_heuristics_preset_sweeps_algorithms_on_one_instance():
    grid = preset_grid("heuristics")
    assert [c.algorithm.name for c in grid.cells] == ["kl", "fm", "sa", "ckl", "csa"]
    assert len({c.graph_key for c in grid.cells}) == 1  # one shared graph


def test_gbreg_widths_are_parity_feasible():
    for cell in preset_grid("phase-sweep").cells:
        if cell.family != "gbreg":
            continue
        n = cell.two_n // 2
        assert (n * int(cell.degree) - cell.width) % 2 == 0


def test_overrides_flow_through():
    grid = preset_grid(
        "quick", two_n=60, seeds_per_cell=5, algorithms=("fm",), graph_seed=9
    )
    assert all(c.two_n == 60 for c in grid.cells)
    assert all(c.graph_seed == 9 for c in grid.cells)
    assert all(c.algorithm == AlgorithmSpec.make("fm") for c in grid.cells)
    assert grid.seeds_per_cell == 5


def test_generator_spec_builds_the_service_graph():
    for cell in preset_grid("quick", two_n=40).cells:
        model, params = cell.generator_spec()
        graph = graph_from_generator_spec(model, params)
        assert graph.num_vertices == 40
        assert cell.build_graph().num_vertices == 40


def test_sa_cells_carry_size_factor():
    (cell,) = [
        c for c in preset_grid("heuristics", sa_size_factor=3).cells
        if c.algorithm.name == "sa"
    ]
    assert cell.algorithm.params_dict() == {"size_factor": 3}


def test_unknown_preset_and_algorithm_raise():
    with pytest.raises(ValueError):
        preset_grid("nope")
    with pytest.raises(KeyError):
        algorithm_specs(("not-an-algorithm",))
    with pytest.raises(KeyError):
        algorithm_specs(("hfm",))  # the retired netlist FM


def test_cell_labels_and_payload():
    cell = preset_grid("quick").cells[0]
    assert cell.label.startswith("Gbreg(")
    payload = cell.to_dict()
    assert payload["family"] == "gbreg"
    assert payload["algorithm"] == "kl"
