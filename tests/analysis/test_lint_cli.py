"""The `repro-bisect lint` command, including the repo-clean smoke test."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import SARIF_VERSION, Baseline, default_baseline_path, default_config
from repro.analysis import runner
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestRepoIsClean:
    # The CLI gets the session's shared real-tree scan instead of paying
    # for a scan of its own in every test.
    def _share_scan(self, monkeypatch, real_tree_result):
        def shared_scan(config, baseline_path):
            assert config == default_config()
            assert baseline_path == default_baseline_path()
            return real_tree_result

        monkeypatch.setattr(runner, "run_analysis", shared_scan)

    def test_check_passes_on_the_real_tree(self, capsys, monkeypatch, real_tree_result):
        # The headline acceptance criterion: zero unsuppressed findings on
        # the shipped source tree, baseline fully justified and non-stale.
        self._share_scan(monkeypatch, real_tree_result)
        assert main(["lint", "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_sarif_output_on_the_real_tree(self, capsys, monkeypatch, real_tree_result):
        self._share_scan(monkeypatch, real_tree_result)
        assert main(["lint", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == SARIF_VERSION
        run = doc["runs"][0]
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "R001", "R002", "R003", "R004", "R005", "R007",
            "R010", "R011", "R012", "R013", "R015",
        ]
        # Every emitted result is a baselined (suppressed) one.
        assert all("suppressions" in r for r in run["results"])


class TestAgainstFixtures:
    ROOT = str(FIXTURES / "r001")

    def test_check_fails_on_findings(self, tmp_path, capsys):
        code = main(
            ["lint", "--check", "--root", self.ROOT,
             "--baseline", str(tmp_path / "empty.json")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "bad.py" in out and "R001" in out

    def test_rule_filter(self, tmp_path, capsys):
        code = main(
            ["lint", "--check", "--root", self.ROOT, "--rule", "R002",
             "--baseline", str(tmp_path / "empty.json")]
        )
        assert code == 0  # r001 fixtures contain no wall-clock calls

    def test_json_format(self, tmp_path, capsys):
        main(
            ["lint", "--format", "json", "--root", self.ROOT,
             "--baseline", str(tmp_path / "empty.json")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] and payload["suppressed"] == []
        assert {f["rule"] for f in payload["findings"]} == {"R001"}

    def test_retired_r009_is_an_unknown_rule(self, capsys):
        for rule in ("R009", "R006", "R008", "R014", "R016"):
            assert main(["lint", "--root", self.ROOT, "--rule", rule]) == 2, rule
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == [err.strip()]
            assert f"unknown rule id(s): {rule}" in err

    def test_missing_root_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--check", "--root", str(tmp_path / "nope")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"lint: root {tmp_path / 'nope'} is not a directory containing Python modules\n"

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.sarif"
        main(
            ["lint", "--format", "sarif", "--root", self.ROOT,
             "--baseline", str(tmp_path / "empty.json"), "--out", str(target)]
        )
        assert "wrote" in capsys.readouterr().out
        assert json.loads(target.read_text())["version"] == SARIF_VERSION


class TestBaselineWorkflow:
    ROOT = str(FIXTURES / "r001")

    def test_update_then_check_rejects_todo(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline", "--root", self.ROOT,
                     "--baseline", str(baseline)]) == 0
        assert "needing justification" in capsys.readouterr().out
        # The stubs suppress the findings but --check still fails: a TODO
        # justification is a debt, not an acceptance.
        assert main(["lint", "--check", "--root", self.ROOT,
                     "--baseline", str(baseline)]) == 1
        assert "placeholder justification" in capsys.readouterr().out

    def test_justified_baseline_passes_check(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        main(["lint", "--update-baseline", "--root", self.ROOT,
              "--baseline", str(baseline_path)])
        capsys.readouterr()
        baseline = Baseline.load(baseline_path)
        for entry in baseline.entries:
            object.__setattr__(entry, "justification", "accepted for the fixture test")
        baseline.save(baseline_path)
        assert main(["lint", "--check", "--root", self.ROOT,
                     "--baseline", str(baseline_path)]) == 0

    def test_stale_baseline_fails_check(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        Baseline.load(baseline_path)  # ensure missing file is fine
        from repro.analysis import BaselineEntry

        Baseline([BaselineEntry("R001", "nonexistent.py", "f", "why")]).save(
            baseline_path
        )
        code = main(["lint", "--check", "--root", str(FIXTURES / "r002"),
                     "--rule", "R001", "--baseline", str(baseline_path)])
        assert code == 1
        assert "stale" in capsys.readouterr().out
