"""The ``stats`` command and the ``--ledger`` recording flag, end to end."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.engine import AlgorithmSpec, Engine, Job
from repro.graphs.generators import gbreg
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


class TestSelfTime:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.edges"
        assert main(
            ["generate", "gbreg", "--vertices", "200", "--width", "4",
             "--degree", "3", "--seed", "0", "--out", str(out)]
        ) == 0
        return str(out)

    def _ckl_ledger(self, graph_file, tmp_path, *flags):
        target = tmp_path / "ckl.json"
        assert main(["run", graph_file, "--algorithm", "ckl", "--seed", "1",
                     *flags, "--ledger", str(target)]) == 0
        return target, json.loads(target.read_text())

    def test_owner_self_times_and_remainder_add_up_to_wall(self, graph_file, tmp_path):
        _, ledger = self._ckl_ledger(graph_file, tmp_path, "--jobs", "1")
        split = ledger["self_seconds"]
        assert "workers" not in split
        owner = split["owner"]
        assert {"engine.batch", "engine.batch/pipeline.coarse/kl.run",
                "engine.batch/pipeline.final/kl.run/kl.pass"} <= set(owner)
        assert owner["engine.batch"]["count"] == 1
        attributed = sum(entry["seconds"] for entry in owner.values())
        assert split["unattributed"] >= 0
        assert abs(attributed + split["unattributed"] - ledger["wall_seconds"]) <= 1e-5
        # Self times of a span's subtree add up to its inclusive total.
        assert sum(
            entry["seconds"] for path, entry in owner.items()
            if path.startswith("engine.batch/pipeline.coarse")
        ) == pytest.approx(ledger["spans"]["pipeline.coarse"]["seconds"], abs=1e-5)

    def test_worker_self_times_are_listed_apart(self, graph_file, tmp_path, capsys):
        target, ledger = self._ckl_ledger(
            graph_file, tmp_path, "--starts", "2", "--jobs", "2"
        )
        split = ledger["self_seconds"]
        assert set(split["owner"]) == {"engine.batch"}
        assert split["workers"]["pipeline.coarse/kl.run"]["count"] == 2
        owner = split["owner"]["engine.batch"]["seconds"]
        assert abs(owner + split["unattributed"] - ledger["wall_seconds"]) <= 1e-5
        capsys.readouterr()
        assert main(["stats", str(target)]) == 0
        out = capsys.readouterr().out
        assert "self time, owner process" in out
        assert "self time, pool workers" in out

    def test_worker_spans_reach_the_telemetry_file_once(self, graph_file, tmp_path):
        events = tmp_path / "events.jsonl"
        _, ledger = self._ckl_ledger(
            graph_file, tmp_path, "--starts", "2", "--jobs", "2", "--telemetry", str(events)
        )
        spans = [
            record for record in map(json.loads, events.read_text().splitlines())
            if record["kind"] == "span"
        ]
        ids = [record["span_id"] for record in spans]
        assert len(ids) == len(set(ids))
        # Every worker span is the owner's copy, labelled with its slot.
        assert [r["name"] for r in spans if "worker" not in r] == ["engine.batch"]
        assert ledger["self_seconds"]["workers"]["pipeline.coarse/kl.run"]["count"] == 2

    def test_ledger_with_legacy_profile_key_validates_and_renders(
        self, graph_file, tmp_path, capsys
    ):
        target, ledger = self._ckl_ledger(graph_file, tmp_path)
        ledger["profile"] = {
            "hz": 97.0, "samples": 3, "wall_seconds": 0.03, "truncated": 0,
            "stacks": [{"stack": "repro.cli:main;repro.partition.kl:kl_sequence",
                        "count": 3}],
        }
        target.write_text(json.dumps(ledger))
        capsys.readouterr()
        assert main(["stats", str(target), "--validate"]) == 0
        assert main(["stats", str(target)]) == 0
        assert "self time, owner process" in capsys.readouterr().out

    def test_ledger_without_self_time_validates(self, graph_file, tmp_path, capsys):
        target, ledger = self._ckl_ledger(graph_file, tmp_path)
        del ledger["self_seconds"]
        target.write_text(json.dumps(ledger))
        assert main(["stats", str(target), "--validate"]) == 0
        assert main(["stats", str(target)]) == 0
        assert main(["stats", "--diff", str(target), str(target)]) == 0

    def test_diff_names_the_slowed_span_first(self, tmp_path, capsys):
        graph = gbreg(200, 4, 3, rng=0).graph
        with run_context(workload={"command": "run"}) as run:
            Engine().run([Job("g", AlgorithmSpec("ckl"), seed=1)], graphs={"g": graph})
        old = write_ledger(build_ledger(run, argv=["run"]), tmp_path / "old.json")
        # Slow pipeline.project, one of the smallest spans, by 20 ms: its
        # ancestors and the wall carry the same 20 ms, as they would.
        slower = copy.copy(run)
        slower.spans = copy.deepcopy(run.spans)
        by_id = {record["span_id"]: record for record in slower.spans}
        (record,) = [r for r in slower.spans if r["name"] == "pipeline.project"]
        while record is not None:
            record["seconds"] += 0.02
            record = by_id.get(record.get("parent"))
        slower.wall_seconds += 0.02
        new = write_ledger(build_ledger(slower, argv=["run"]), tmp_path / "new.json")
        assert main(["stats", "--diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "largest self-time change: engine.batch/pipeline.project (+0.0200s)" in out
        table = out.split("self time deltas, owner process (largest first)\n", 1)[1]
        first_row = table.splitlines()[2]
        assert first_row.split()[0] == "engine.batch/pipeline.project"
