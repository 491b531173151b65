"""Unit tests for telemetry events, summaries, and the Timer."""

from __future__ import annotations

import json
import time

from repro.engine.telemetry import Telemetry, Timer


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.01
        assert timer.elapsed == timer.seconds

    def test_elapsed_while_running(self):
        timer = Timer()
        assert timer.elapsed == 0.0
        with timer:
            time.sleep(0.005)
            assert timer.elapsed > 0.0


class TestTelemetry:
    def test_emit_and_query(self):
        telemetry = Telemetry()
        telemetry.emit("job_queued", "a", mode="serial")
        telemetry.emit("job_finish", "a", status="ok", cut=3, seconds=0.1)
        assert telemetry.count("job_queued") == 1
        assert telemetry.of_kind("job_finish")[0].payload["cut"] == 3

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = Telemetry(path)
        telemetry.emit("batch_start", jobs=2)
        telemetry.emit("job_finish", "j0", status="ok")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "batch_start"
        assert records[1]["job_id"] == "j0"

    def test_summary_counts(self):
        telemetry = Telemetry()
        telemetry.emit("job_queued", "a")
        telemetry.emit("job_finish", "a", status="ok", seconds=1.0, attempts=1)
        telemetry.emit("cache_hit", "b")
        telemetry.emit("job_finish", "b", status="ok", from_cache=True)
        telemetry.emit("job_queued", "c")
        telemetry.emit("job_finish", "c", status="failed", seconds=0.5)
        summary = telemetry.summary()
        assert summary["jobs"] == 3
        assert summary["cache_hits"] == 1
        assert summary["executed"] == 2
        assert summary["failed"] == 1
        assert "retries" not in summary
        assert summary["compute_seconds"] == 1.5

    def test_render_summary_mentions_degradation(self):
        telemetry = Telemetry()
        telemetry.emit("pool_unavailable", error="x")
        text = telemetry.render_summary()
        assert text.startswith("engine:")
        assert "degraded to serial" in text
