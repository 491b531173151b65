"""Every workload runs, checks and traces at a tiny size; run.py and
the comparison behave at their edges."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare, workloads
from perfbench.child import traced_phase

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_GRAPH", {"vertices": 120, "width": 4, "degree": 3})
    monkeypatch.setattr(workloads, "SERVICE_GRAPH", {"vertices": 120, "width": 4, "degree": 3})
    monkeypatch.setattr(workloads, "STUDY_SIZE", 120)
    monkeypatch.setattr(workloads, "STUDY_SEEDS_PER_CELL", 3)
    monkeypatch.setattr(workloads, "INTERPRETER_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_checks_and_traces(name, tiny, tmp_path):
    workload = workloads.make_workload(name, 7, tmp_path)
    try:
        workload.setup()
        plain = workload.measure(0.01)
        assert plain.results >= 1 and plain.latencies
        assert plain.attempted >= 1 and plain.failures == []
        traced, layers = traced_phase(workload, 0.01, plain)
    finally:
        workload.close()
    assert traced.failures == []
    assert layers["quality.cut_mean"] > 0
    if name.startswith(("ckl", "service")):
        assert layers["core.compact_s"] > 0
    if name.startswith("kl"):
        assert layers["core.compact_s"] == 0 and layers["partition.kl_fine_s"] > 0
    if name.startswith("study"):
        assert layers["engine.run_s"] > 0 and layers["study.overhead_s"] > 0
    if name.startswith(("cli", "service")):
        assert layers["cli.import_s"] > 0


def test_workloads_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kl-gbreg5000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    steady = {seed: 1.0 + 0.001 * seed for seed in range(10)}
    slower = {seed: value * 1.3 for seed, value in steady.items()}
    faster = {seed: value * 0.8 for seed, value in steady.items()}
    noisy = {seed: 1.0 + 0.5 * (seed % 2) for seed in range(10)}
    assert compare.verdict(steady, dict(steady), "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, slower, "lower", 0.1) == "worse"
    assert compare.verdict(steady, faster, "lower", 0.1) == "better"
    assert compare.verdict(steady, faster, "higher", 0.1) == "worse"
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"


def test_compare_exit_code(tmp_path):
    def write(path, factor):
        with open(path, "w") as stream:
            for seed in range(5):
                metrics = {"latency_p50_s": {"value": factor * (1 + 0.001 * seed), "unit": "s"}}
                stream.write(json.dumps({"workload": "kl-gbreg5000", "seed": seed, "trace": 0,
                                         "metrics": metrics, "failed": 0}) + "\n")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.5)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl")]) == 0
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 1
