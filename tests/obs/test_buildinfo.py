"""Process identity gauges: repro_build_info, uptime, RSS."""

from __future__ import annotations

import repro
from repro.obs import REGISTRY
from repro.obs.buildinfo import (
    process_rss_bytes,
    refresh_process_gauges,
    set_build_info,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import parse_series


class TestBuildInfo:
    def test_identity_in_labels_value_is_one(self):
        registry = MetricsRegistry()
        set_build_info(registry)
        (series,) = registry.snapshot()["gauges"]
        name, labels = parse_series(series)
        assert name == "repro_build_info"
        assert labels["version"] == repro.__version__
        assert set(labels) == {"version", "python", "start_method"}
        assert registry.snapshot()["gauges"][series] == 1.0

    def test_refresh_sets_all_three_gauges(self):
        registry = MetricsRegistry()
        refresh_process_gauges(registry)
        gauges = registry.snapshot()["gauges"]
        names = {parse_series(series)[0] for series in gauges}
        assert "repro_build_info" in names
        assert "repro_process_uptime_seconds" in names
        # RSS is platform-dependent but Linux CI always has /proc.
        if process_rss_bytes() is not None:
            assert gauges["repro_process_rss_bytes"] > 0
        assert gauges["repro_process_uptime_seconds"] >= 0

    def test_defaults_to_global_registry(self):
        refresh_process_gauges()
        names = {
            parse_series(series)[0]
            for series in REGISTRY.snapshot()["gauges"]
        }
        assert "repro_process_uptime_seconds" in names

    def test_noop_when_obs_off(self, monkeypatch):
        registry = MetricsRegistry()
        monkeypatch.setenv("REPRO_OBS", "0")
        refresh_process_gauges(registry)
        assert registry.snapshot()["gauges"] == {}

    def test_rss_reads_something_plausible(self):
        rss = process_rss_bytes()
        if rss is None:
            return  # platform without /proc or resource
        # A running CPython interpreter needs at least a few MiB.
        assert rss > 1_000_000
