"""CLI tests for the engine-backed commands: batch, --jobs, caching."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture
def graph_file(tmp_path):
    out = tmp_path / "g.edges"
    main(
        [
            "generate", "gbreg", "--vertices", "60", "--width", "4",
            "--degree", "3", "--seed", "3", "--out", str(out),
        ]
    )
    return str(out)


class TestRunStarts:
    def test_multi_start_best_of(self, graph_file, capsys):
        assert main(["run", graph_file, "--algorithm", "kl", "--seed", "9",
                     "--starts", "3"]) == 0
        out = capsys.readouterr().out
        assert "cut=" in out
        assert "starts: 3" in out

    def test_parallel_starts_match_serial(self, graph_file, capsys):
        args = ["run", graph_file, "--algorithm", "kl", "--seed", "9", "--starts", "3"]
        main(args + ["--jobs", "1"])
        serial = capsys.readouterr().out
        main(args + ["--jobs", "3"])
        parallel = capsys.readouterr().out
        assert serial.splitlines()[1] == parallel.splitlines()[1]  # the cuts line

    def test_parallel_ckl_partition_matches_serial(self, graph_file, tmp_path, capsys):
        # The benchmark's CLI command: two CKL starts, the best one saved.
        cuts, partitions = [], []
        for jobs in ("1", "2"):
            partition = tmp_path / f"jobs{jobs}.part"
            assert main(["run", graph_file, "--algorithm", "ckl", "--seed", "9",
                         "--starts", "2", "--jobs", jobs,
                         "--save-partition", str(partition)]) == 0
            cuts.append(capsys.readouterr().out.splitlines()[1])
            partitions.append(partition.read_bytes())
        assert cuts[0].startswith("starts: 2  cuts: [")
        assert cuts[0] == cuts[1]
        assert partitions[0] == partitions[1]


class TestTableEngine:
    def test_parallel_table_matches_serial_and_hits_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        cache = str(tmp_path / "cache")
        base = ["table", "gbreg-d3", "--kl-only", "--seed", "1", "--cache-dir", cache]
        assert main(base + ["--jobs", "2"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--jobs", "1"]) == 0
        second = capsys.readouterr().out
        # Cache hits replay recorded timings, so the tables are identical;
        # only the engine summary line differs.
        def table_lines(text):
            return [l for l in text.splitlines() if not l.startswith("engine:")]

        assert table_lines(first) == table_lines(second)
        assert "0 cache hits" in first
        assert "cache hits" in second
        assert "0 executed" in second

    def test_no_cache_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["table", "ladder", "--kl-only", "--no-cache"]) == 0
        assert "0 cache hits" in capsys.readouterr().out


class TestBatch:
    def test_batch_end_to_end_with_cache_and_telemetry(
        self, tmp_path, graph_file, capsys
    ):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({
            "defaults": {"starts": 2, "seed": 5},
            "jobs": [
                {"graph": graph_file, "algorithm": "kl", "label": "kl-run"},
                {"graph": graph_file, "algorithm": "ckl", "label": "ckl-run"},
            ],
        }), encoding="utf-8")
        cache = str(tmp_path / "cache")
        telemetry = tmp_path / "events.jsonl"
        results = tmp_path / "results.jsonl"
        assert main(["batch", str(spec), "--cache-dir", cache,
                     "--telemetry", str(telemetry), "--out", str(results)]) == 0
        out = capsys.readouterr().out
        assert "kl-run" in out and "ckl-run" in out

        rows = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)

        # Second invocation must be served from the cache.
        assert main(["batch", str(spec), "--cache-dir", cache,
                     "--telemetry", str(telemetry)]) == 0
        assert "4 cache hits" in capsys.readouterr().out
        kinds = [json.loads(line)["kind"]
                 for line in telemetry.read_text().splitlines()]
        assert kinds.count("cache_hit") == 4

    def test_failed_entry_sets_exit_code(self, tmp_path, graph_file, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({
            "jobs": [{"graph": graph_file, "algorithm": "nonsense"}],
        }), encoding="utf-8")
        assert main(["batch", str(spec), "--no-cache"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_empty_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"jobs": []}), encoding="utf-8")
        assert main(["batch", str(spec)]) == 1
