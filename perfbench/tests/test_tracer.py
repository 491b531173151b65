"""The tracer wraps every binding of a function and puts every one back."""

import sys
import types

import pytest

from perfbench.layers import PROBES, MEASURED_ELSEWHERE, layer_metrics
from perfbench.tracer import Probe, Tracer

FAKE = "repro._perfbench_selftest"
FAKE_SOURCE = '''
now = [0.0]

def inner():
    now[0] += 2.0

def outer():
    now[0] += 3.0
    inner()
    inner()

def recurse(depth):
    now[0] += 1.0
    if depth:
        recurse(depth - 1)

def uses_default(step=inner):
    step()
'''


@pytest.fixture
def fake_module():
    module = types.ModuleType(FAKE)
    exec(FAKE_SOURCE, module.__dict__)
    sys.modules[FAKE] = module
    try:
        yield module
    finally:
        del sys.modules[FAKE]


def _tracer(module, *names):
    return Tracer([Probe(f"{FAKE}:{name}", name) for name in names], clock=lambda: module.now[0])


def test_self_time_excludes_wrapped_children(fake_module):
    with _tracer(fake_module, "outer", "inner") as tracer:
        fake_module.outer()
    snap = tracer.snapshot()
    assert snap["calls"] == {"outer": 1, "inner": 2}
    assert snap["total"] == {"outer": 7.0, "inner": 4.0}
    assert snap["self"] == {"outer": 3.0, "inner": 4.0}
    assert snap["edges"] == {"inner<outer": 4.0}


def test_recursion_counts_total_once(fake_module):
    with _tracer(fake_module, "recurse") as tracer:
        fake_module.recurse(2)
    snap = tracer.snapshot()
    assert snap["calls"] == {"recurse": 3}
    assert snap["total"] == {"recurse": 3.0}
    assert snap["self"] == {"recurse": 3.0}


def test_aliases_and_defaults_are_wrapped_and_restored(fake_module):
    original = fake_module.inner
    alias = types.ModuleType("repro._perfbench_alias")
    alias.inner_alias = original
    sys.modules[alias.__name__] = alias
    try:
        with _tracer(fake_module, "inner") as tracer:
            assert fake_module.inner is not original
            assert alias.inner_alias is fake_module.inner
            assert fake_module.uses_default.__defaults__[0] is fake_module.inner
            # A module imported while the tracer is installed copies the wrapper.
            late = types.ModuleType("repro._perfbench_late")
            late.inner = fake_module.inner
            sys.modules[late.__name__] = late
            fake_module.uses_default()
        assert tracer.calls == {"inner": 1}
        assert fake_module.inner is original
        assert alias.inner_alias is original
        assert late.inner is original
        assert fake_module.uses_default.__defaults__ == (original,)
    finally:
        sys.modules.pop("repro._perfbench_alias", None)
        sys.modules.pop("repro._perfbench_late", None)


def test_program_probes_catch_from_imports_and_restore():
    import repro
    import repro.core.compaction as compaction
    import repro.core.pipeline as pipeline
    import repro.partition.kl as kl
    from repro.graphs.generators import gbreg

    before = {
        "csr_view": kl.csr_view,
        "project": compaction.Compaction.__dict__["project"],
        "defaults": pipeline.compacted_bisection.__defaults__,
        "ckl": repro.ckl,
    }
    graph = gbreg(120, 4, 3, rng=5).graph
    with Tracer(PROBES) as tracer:
        assert kl.csr_view is not before["csr_view"]
        repro.ckl(graph, rng=3)
    snap = tracer.snapshot()
    for name in ("core.match", "core.compact", "core.project", "core.pipeline",
                 "partition.kl_coarse", "partition.kl_fine", "graphs.csr_view"):
        assert snap["calls"].get(name, 0) >= 1, name
    assert snap["counts"]["kl_passes"] >= 2
    assert kl.csr_view is before["csr_view"]
    assert compaction.Compaction.__dict__["project"] is before["project"]
    assert pipeline.compacted_bisection.__defaults__ == before["defaults"]
    assert repro.ckl is before["ckl"]


def test_every_per_layer_metric_is_produced():
    import json
    from pathlib import Path

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in bench["per_layer"]}
    produced = layer_metrics({}, 1, {})
    assert set(produced) == names
    assert set(MEASURED_ELSEWHERE) <= names
