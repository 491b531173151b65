"""Ledger building, content-addressed storage, diffing, schema validation."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    LEDGER_SCHEMA,
    build_ledger,
    counter,
    diff_ledgers,
    gauge,
    histogram,
    ledger_dir,
    load_ledger,
    load_schema,
    run_context,
    span,
    validate_ledger,
    write_ledger,
)
from repro.obs.dashboard import render_ledger, render_ledger_diff


def _make_ledger(workload=None, swaps=10, wall_gauge=0.5):
    """Build a real ledger by running an instrumented block in a context."""
    with run_context(workload=workload or {"command": "table"}) as run:
        counter("kl_swaps_total").inc(swaps)
        gauge("compaction_ratio").set(wall_gauge)
        histogram("pass_seconds", buckets=(1.0,)).observe(0.25)
        with span("kl.run"):
            pass
    return build_ledger(run, argv=["table", "gbreg-d3"])


class TestBuildLedger:
    def test_shape_and_env(self):
        ledger = _make_ledger()
        assert ledger["schema"] == LEDGER_SCHEMA
        assert ledger["kind"] == "ledger"
        assert ledger["env"]["obs"] is True
        assert "kernel" not in ledger["env"]
        assert ledger["argv"] == ["table", "gbreg-d3"]
        assert ledger["counters"] == {"kl_swaps_total": 10}
        assert ledger["gauges"]["compaction_ratio"] == 0.5
        assert ledger["histograms"]["pass_seconds"]["count"] == 1
        assert "kl.run" in ledger["spans"]

    def test_counters_are_delta_over_the_run(self):
        counter("kl_swaps_total").inc(100)  # process-lifetime noise
        with run_context() as run:
            counter("kl_swaps_total").inc(3)
        ledger = build_ledger(run)
        assert ledger["counters"] == {"kl_swaps_total": 3}

    def test_histograms_are_delta_over_the_run(self):
        histogram("pass_seconds", buckets=(1.0,)).observe(0.5)
        with run_context() as run:
            histogram("pass_seconds").observe(0.25)
            histogram("pass_seconds").observe(2.0)
        ledger = build_ledger(run)
        delta = ledger["histograms"]["pass_seconds"]
        assert delta["count"] == 2
        assert delta["counts"] == [1, 1]
        assert delta["sum"] == pytest.approx(2.25)

    def test_untouched_metrics_are_omitted(self):
        counter("before_total").inc(2)
        with run_context() as run:
            pass
        ledger = build_ledger(run)
        assert ledger["counters"] == {}
        assert ledger["histograms"] == {}


class TestStorage:
    def test_round_trip_through_explicit_file(self, tmp_path):
        ledger = _make_ledger()
        path = write_ledger(ledger, tmp_path / "run.json")
        assert load_ledger(path) == json.loads(json.dumps(ledger))

    def test_content_addressing_collides_identical_ledgers(self, tmp_path):
        ledger = _make_ledger()
        first = write_ledger(ledger, tmp_path)
        second = write_ledger(ledger, tmp_path)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_different_ledgers_get_different_files(self, tmp_path):
        a = _make_ledger(swaps=1)
        b = _make_ledger(swaps=2)
        assert write_ledger(a, tmp_path) != write_ledger(b, tmp_path)

    def test_default_target_is_the_cache_ledger_dir(self):
        path = write_ledger(_make_ledger())
        assert str(ledger_dir()) in path

    def test_load_rejects_unknown_schema(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="unsupported ledger schema"):
            load_ledger(target)


class TestDiff:
    def test_counter_rows_carry_delta_and_ratio(self):
        old = _make_ledger(swaps=10)
        new = _make_ledger(swaps=25)
        report = diff_ledgers(old, new)
        (row,) = [r for r in report["counters"] if r["name"] == "kl_swaps_total"]
        assert row["old"] == 10
        assert row["new"] == 25
        assert row["delta"] == 15
        assert row["ratio"] == pytest.approx(2.5)
        assert report["same_workload"] is True
        assert report["env_changes"] == {}

    def test_span_rows_present(self):
        report = diff_ledgers(_make_ledger(), _make_ledger())
        names = [r["name"] for r in report["spans"]]
        assert "kl.run" in names

    def test_workload_mismatch_flagged(self):
        old = _make_ledger(workload={"command": "table"})
        new = _make_ledger(workload={"command": "report"})
        assert diff_ledgers(old, new)["same_workload"] is False

    def test_scale_change_is_an_env_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        old = _make_ledger()
        monkeypatch.setenv("REPRO_SCALE", "paper")
        new = _make_ledger()
        report = diff_ledgers(old, new)
        assert report["env_changes"]["scale"] == ["smoke", "paper"]
        assert "scale: 'smoke' -> 'paper'" in render_ledger_diff(report)

    def test_refuses_instrumented_vs_uninstrumented(self, monkeypatch):
        instrumented = _make_ledger()
        monkeypatch.setenv("REPRO_OBS", "0")
        with run_context() as run:
            pass
        bare = build_ledger(run)
        assert bare["env"]["obs"] is False
        with pytest.raises(ValueError, match="refusing to diff ledgers"):
            diff_ledgers(instrumented, bare)


class TestValidation:
    def test_real_ledger_is_valid(self):
        assert validate_ledger(_make_ledger()) == []

    def test_ledger_with_legacy_csr_flag_is_valid_and_renders(self):
        ledger = _make_ledger()
        ledger["env"]["csr"] = True
        assert validate_ledger(ledger) == []
        assert "csr=True" in render_ledger(ledger)

    def test_ledger_with_legacy_kernel_field_is_valid_and_renders(self):
        ledger = _make_ledger()
        ledger["env"]["kernel"] = "numpy"
        assert validate_ledger(ledger) == []
        header = render_ledger(ledger)
        assert "kernel=numpy" in header
        assert "csr=" not in header

    def test_current_ledger_header_names_no_backend(self):
        header = render_ledger(_make_ledger())
        assert "kernel=" not in header
        assert "csr=" not in header

    def test_missing_required_key_is_a_violation(self):
        ledger = _make_ledger()
        del ledger["wall_seconds"]
        violations = validate_ledger(ledger)
        assert any("wall_seconds" in v for v in violations)

    def test_wrong_type_is_a_violation(self):
        ledger = _make_ledger()
        ledger["counters"] = "not-a-mapping"
        violations = validate_ledger(ledger)
        assert any("counters" in v for v in violations)

    def test_schema_file_loads_and_pins_required_keys(self):
        schema = load_schema()
        assert "counters" in schema["required"]
        assert "spans" in schema["required"]
