"""The ``stats`` command and the ``--ledger`` recording flag, end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    build_ledger,
    counter,
    histogram,
    ledger_dir,
    run_context,
    write_ledger,
)


def _ledger_file(tmp_path, name, swaps, workload=None):
    with run_context(workload=workload or {"command": "table"}) as run:
        counter("kl_swaps_total").inc(swaps)
    return write_ledger(build_ledger(run, argv=["table"]), tmp_path / name)


class TestStatsRender:
    def test_renders_dashboard(self, tmp_path, capsys):
        path = _ledger_file(tmp_path, "a.json", swaps=7)
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "kl_swaps_total" in out
        assert "7" in out

    def test_prometheus_dump(self, tmp_path, capsys):
        path = _ledger_file(tmp_path, "a.json", swaps=7)
        assert main(["stats", path, "--prometheus"]) == 0
        assert "kl_swaps_total 7" in capsys.readouterr().out

    def test_prometheus_dump_is_valid_exposition_for_labelled_series(
        self, tmp_path, capsys
    ):
        with run_context(workload={"command": "run"}) as run:
            counter("engine_worker_jobs_total", worker="0").inc(2)
            counter("engine_worker_jobs_total", worker="1").inc(3)
            histogram("stage_seconds", stage="a").observe(0.02)
            histogram("stage_seconds", stage="b").observe(3.0)
        path = write_ledger(build_ledger(run, argv=["run"]), tmp_path / "f.json")
        assert main(["stats", path, "--prometheus"]) == 0
        lines = capsys.readouterr().out.splitlines()
        families = [line.split()[2] for line in lines if line.startswith("# TYPE ")]
        assert len(families) == len(set(families))
        assert len(lines) == len(set(lines))
        assert 'engine_worker_jobs_total{worker="0"} 2' in lines
        assert 'engine_worker_jobs_total{worker="1"} 3' in lines
        assert 'stage_seconds_bucket{stage="a",le="0.05"} 1' in lines
        assert 'stage_seconds_bucket{stage="b",le="0.05"} 0' in lines
        assert 'stage_seconds_count{stage="b"} 1' in lines

    def test_unreadable_ledger_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["stats", missing]) == 2
        assert "cannot read ledger" in capsys.readouterr().err

    def test_no_args_lists_empty_directory(self, capsys):
        assert main(["stats"]) == 0
        assert "no ledgers under" in capsys.readouterr().out

    def test_no_args_lists_recorded_ledgers(self, capsys):
        with run_context() as run:
            pass
        write_ledger(build_ledger(run, argv=["table"]))
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert str(ledger_dir()) in out
        assert run.run_id in out


class TestStatsDiff:
    def test_diff_explains_counter_delta(self, tmp_path, capsys):
        old = _ledger_file(tmp_path, "old.json", swaps=10)
        new = _ledger_file(tmp_path, "new.json", swaps=30)
        assert main(["stats", "--diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "kl_swaps_total" in out
        assert "10" in out and "30" in out

    def test_diff_refuses_obs_mismatch(self, tmp_path, capsys, monkeypatch):
        instrumented = _ledger_file(tmp_path, "on.json", swaps=10)
        monkeypatch.setenv("REPRO_OBS", "0")
        with run_context() as run:
            pass
        bare = write_ledger(build_ledger(run, argv=[]), tmp_path / "off.json")
        assert main(["stats", "--diff", instrumented, bare]) == 2
        assert "refusing to diff" in capsys.readouterr().err

    def test_diff_missing_file_exits_2(self, tmp_path, capsys):
        real = _ledger_file(tmp_path, "a.json", swaps=1)
        assert main(["stats", "--diff", real, str(tmp_path / "gone.json")]) == 2
        assert "cannot diff ledgers" in capsys.readouterr().err


class TestStatsValidate:
    def test_valid_ledger_passes(self, tmp_path, capsys):
        path = _ledger_file(tmp_path, "a.json", swaps=1)
        assert main(["stats", path, "--validate"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_ledger_exits_1(self, tmp_path, capsys):
        path = _ledger_file(tmp_path, "a.json", swaps=1)
        ledger = json.loads(open(path).read())
        del ledger["env"]
        with open(path, "w") as stream:
            json.dump(ledger, stream)
        assert main(["stats", path, "--validate"]) == 1
        assert "missing required key 'env'" in capsys.readouterr().err


class TestLedgerFlag:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.edges"
        assert main(
            ["generate", "gbreg", "--vertices", "40", "--width", "4",
             "--degree", "3", "--seed", "0", "--out", str(out)]
        ) == 0
        return str(out)

    def test_run_with_ledger_auto_records_and_diffs(self, graph_file, capsys):
        assert main(["run", graph_file, "--algorithm", "kl", "--seed", "0",
                     "--ledger", "auto"]) == 0
        out = capsys.readouterr().out
        assert "wrote ledger" in out
        paths = sorted(ledger_dir().glob("*.json"))
        assert len(paths) == 1
        ledger = json.loads(paths[0].read_text())
        assert ledger["counters"]["kl_runs_total"] == 1
        assert ledger["workload"] == {"command": "run"}

    def test_run_with_explicit_ledger_path(self, graph_file, tmp_path, capsys):
        target = tmp_path / "out" / "ledger.json"
        assert main(["run", graph_file, "--algorithm", "kl", "--seed", "0",
                     "--ledger", str(target)]) == 0
        assert target.is_file()
        assert main(["stats", str(target), "--validate"]) == 0
