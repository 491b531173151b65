"""Metric semantics: counters, gauges, histograms, registry, NOOP gating."""

from __future__ import annotations

import pytest

from repro.obs import NOOP, REGISTRY, MetricsRegistry, counter, gauge, histogram, obs_enabled
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.snapshot() == 0
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5

    def test_rejects_negative_increments(self):
        c = Counter("x_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_zero_increment_is_allowed(self):
        c = Counter("x_total")
        c.inc(0)
        assert c.snapshot() == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(3.5)
        g.inc()
        g.dec(0.5)
        assert g.snapshot() == 4.0


class TestHistogram:
    def test_bucket_placement_is_le_semantics(self):
        h = Histogram("t_seconds", buckets=(1.0, 2.0))
        h.observe(0.5)   # <= 1.0
        h.observe(1.0)   # boundary lands in its own bucket (le="1.0")
        h.observe(1.5)   # <= 2.0
        h.observe(9.0)   # +Inf overflow
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(12.0)

    def test_snapshot_shape(self):
        h = Histogram("t_seconds", buckets=(0.1,))
        h.observe(0.05)
        snap = h.snapshot()
        assert snap == {"buckets": [0.1], "counts": [1, 0], "sum": 0.05, "count": 1}

    def test_observe_many_matches_per_element_observe(self):
        values = [0.5, 1.0, 1.5, 9.0]
        bulk = Histogram("t_seconds", buckets=(1.0, 2.0))
        bulk.observe_many(iter(values))  # any iterable, not just lists
        loop = Histogram("t_seconds", buckets=(1.0, 2.0))
        for v in values:
            loop.observe(v)
        assert bulk.snapshot() == loop.snapshot()

    def test_observe_many_empty_is_a_no_op(self):
        h = Histogram("t_seconds", buckets=(1.0,))
        h.observe_many([])
        assert h.count == 0 and h.total == 0.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", buckets=(2.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", buckets=())

    def test_default_buckets_cover_seconds(self):
        assert Histogram("t_seconds").buckets == DEFAULT_SECONDS_BUCKETS

    def test_ratio_buckets_span_unit_interval(self):
        assert RATIO_BUCKETS[0] == pytest.approx(0.1)
        assert RATIO_BUCKETS[-1] == pytest.approx(1.0)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h_seconds") is reg.histogram("h_seconds")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("a")

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", algorithm="kl")
        b = reg.counter("jobs_total", algorithm="sa")
        assert a is not b
        a.inc(2)
        snap = reg.snapshot()
        assert snap["counters"]['jobs_total{algorithm="kl"}'] == 2
        assert snap["counters"]['jobs_total{algorithm="sa"}'] == 0

    def test_histogram_without_buckets_reuses_existing(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0))
        assert reg.histogram("h") is h
        assert reg.histogram("h").buckets == (1.0, 2.0)

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_sections(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c_total": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1


class TestPrometheusRendering:
    def test_type_lines_and_values(self):
        reg = MetricsRegistry()
        reg.counter("swaps_total").inc(7)
        reg.gauge("ratio").set(0.25)
        text = reg.render_prometheus()
        assert "# TYPE swaps_total counter" in text
        assert "swaps_total 7" in text
        assert "# TYPE ratio gauge" in text
        assert "ratio 0.25" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = reg.render_prometheus()
        assert 't_seconds_bucket{le="1.0"} 1' in text
        assert 't_seconds_bucket{le="2.0"} 2' in text
        assert 't_seconds_bucket{le="+Inf"} 3' in text
        assert "t_seconds_sum 11" in text
        assert "t_seconds_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_values_keep_full_precision(self):
        reg = MetricsRegistry()
        reg.counter("moves_total").inc(1_234_567)
        h = reg.histogram("t_seconds", buckets=(1.0,))
        h.observe(1_234_567.125)
        h.observe(0.1)
        lines = reg.render_prometheus().splitlines()
        assert "moves_total 1234567" in lines
        assert f"t_seconds_sum {1_234_567.125 + 0.1!r}" in lines
        assert "t_seconds_count 2" in lines


class TestGating:
    def test_enabled_by_default(self):
        assert obs_enabled()

    def test_disabled_only_by_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not obs_enabled()
        monkeypatch.setenv("REPRO_OBS", "1")
        assert obs_enabled()

    def test_factories_return_noop_when_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert counter("x_total") is NOOP
        assert gauge("x") is NOOP
        assert histogram("x_seconds") is NOOP

    def test_noop_absorbs_every_operation(self):
        NOOP.inc()
        NOOP.inc(5)
        NOOP.dec()
        NOOP.set(3.0)
        NOOP.observe(0.1)
        NOOP.observe_many([0.1, 0.2])

    def test_disabled_factories_leave_registry_untouched(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        counter("ghost_total").inc(10)
        assert REGISTRY.snapshot()["counters"] == {}

    def test_enabled_factories_hit_global_registry(self):
        counter("real_total").inc(2)
        assert REGISTRY.snapshot()["counters"]["real_total"] == 2
