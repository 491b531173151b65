"""Tests for batch spec files and the batch runner protocol."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import best_of_starts
from repro.engine.batch import read_batch_file, run_batch
from repro.engine.cache import ResultCache
from repro.engine.executor import Engine
from repro.engine.job import AlgorithmSpec
from repro.graphs.generators import gbreg
from repro.graphs.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph = gbreg(60, b=4, d=3, rng=11).graph
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    return graph, path


def _write_spec(tmp_path, payload):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestReadBatchFile:
    def test_defaults_merge_and_relative_paths(self, tmp_path, graph_file):
        _, gpath = graph_file
        spec = _write_spec(
            tmp_path,
            {
                "defaults": {"starts": 2, "seed": 5, "algorithm": "ckl"},
                "jobs": [
                    {"graph": gpath.name},
                    {"graph": gpath.name, "algorithm": "sa",
                     "params": {"size_factor": 2}, "seed": 7, "starts": 1,
                     "timeout": 30, "label": "sa-run"},
                ],
            },
        )
        entries = read_batch_file(spec)
        assert len(entries) == 2
        first, second = entries
        assert first.graph_path == str(gpath)
        assert first.spec == AlgorithmSpec.make("ckl")
        assert (first.seed, first.starts) == (5, 2)
        assert second.spec == AlgorithmSpec.make("sa", size_factor=2)
        assert (second.seed, second.starts, second.timeout) == (7, 1, 30)
        assert second.describe() == "sa-run"

    def test_missing_fields_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no 'graph'"):
            read_batch_file(_write_spec(tmp_path, {"jobs": [{"algorithm": "kl"}]}))
        with pytest.raises(ValueError, match="no 'algorithm'"):
            read_batch_file(_write_spec(tmp_path, {"jobs": [{"graph": "g.edges"}]}))
        with pytest.raises(ValueError, match="'jobs'"):
            read_batch_file(_write_spec(tmp_path, {"defaults": {}}))
        with pytest.raises(ValueError, match="'retries' is not supported"):
            read_batch_file(_write_spec(
                tmp_path, {"jobs": [{"graph": "g.edges", "algorithm": "kl", "retries": 1}]}
            ))


class TestRunBatch:
    def test_matches_best_of_starts_protocol(self, tmp_path, graph_file, capsys):
        from repro.cli import main
        from repro.graphs.io import read_edge_list

        _, gpath = graph_file
        spec = _write_spec(
            tmp_path,
            {"jobs": [{"graph": gpath.name, "algorithm": "kl",
                       "seed": 9, "starts": 3}]},
        )
        rows = run_batch(read_batch_file(spec), Engine())
        # Reference run on the graph exactly as the batch loader reads it
        # (vertex insertion order affects KL trajectories, not correctness).
        reference = best_of_starts(
            read_edge_list(gpath), AlgorithmSpec.make("kl"), rng=9, starts=3
        )
        assert rows[0]["status"] == "ok"
        assert rows[0]["cut"] == reference.cut
        assert tuple(rows[0]["start_cuts"]) == reference.start_cuts
        # The CLI's best-of-R door derives the same start seeds.
        capsys.readouterr()
        assert main(["run", str(gpath), "--algorithm", "kl",
                     "--seed", "9", "--starts", "3"]) == 0
        printed = capsys.readouterr().out
        assert f"cuts: {list(reference.start_cuts)}" in printed

    def test_failures_do_not_abort_batch(self, tmp_path, graph_file):
        _, gpath = graph_file
        spec = _write_spec(
            tmp_path,
            {"jobs": [
                {"graph": gpath.name, "algorithm": "kl", "seed": 1},
                {"graph": gpath.name, "algorithm": "nonsense", "seed": 1},
            ]},
        )
        rows = run_batch(read_batch_file(spec), Engine())
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "failed"
        assert rows[1]["cut"] is None
        assert rows[1]["errors"]

    def test_cache_hits_reported_per_entry(self, tmp_path, graph_file):
        _, gpath = graph_file
        spec = _write_spec(
            tmp_path,
            {"jobs": [{"graph": gpath.name, "algorithm": "kl",
                       "seed": 2, "starts": 2}]},
        )
        entries = read_batch_file(spec)
        cache = ResultCache(tmp_path / "cache")
        first = run_batch(entries, Engine(cache=cache))
        second = run_batch(entries, Engine(cache=cache))
        assert first[0]["cache_hits"] == 0
        assert second[0]["cache_hits"] == 2
        assert second[0]["cut"] == first[0]["cut"]
