"""Shipment building and the parent-side merge algebra."""

from __future__ import annotations

import pytest

from repro.obs import REGISTRY, counter, gauge, histogram, run_context, span
from repro.obs.metrics import MetricsRegistry, parse_series
from repro.obs.shipper import (
    MAX_SERIES,
    MAX_SPANS,
    SHIPMENT_VERSION,
    build_shipment,
    collect_shipment,
    merge_shipment,
)


class TestParseSeries:
    def test_bare_name(self):
        assert parse_series("kl_swaps_total") == ("kl_swaps_total", {})

    def test_labels_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("engine_jobs_total", worker="3", phase="kl").inc(7)
        (series,) = registry.snapshot()["counters"]
        name, labels = parse_series(series)
        assert name == "engine_jobs_total"
        assert labels == {"worker": "3", "phase": "kl"}
        # Re-registering through the parsed form lands on the same series.
        registry.counter(name, **labels).inc(1)
        assert registry.snapshot()["counters"][series] == 8

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_series('{"not a series"}')


def _shipment(**counters):
    """A minimal well-formed shipment carrying the given counter deltas."""
    return {
        "version": SHIPMENT_VERSION,
        "pid": 12345,
        "counters": dict(counters),
        "gauges": {},
        "histograms": {},
        "spans": [],
    }


class TestCollect:
    def test_delta_not_absolute(self):
        # Pre-existing (fork-inherited) totals must cancel out.
        counter("kl_swaps_total").inc(100)
        out: dict = {}
        with collect_shipment(out):
            counter("kl_swaps_total").inc(5)
            gauge("sa_final_temperature").set(0.25)
            histogram("csr_compile_seconds", buckets=(0.1, 1.0)).observe(0.5)
        assert out["counters"] == {"kl_swaps_total": 5}
        assert out["gauges"] == {"sa_final_temperature": 0.25}
        assert out["histograms"]["csr_compile_seconds"]["count"] == 1
        assert out["pid"] > 0

    def test_captures_spans_finished_inside(self):
        out: dict = {}
        with collect_shipment(out):
            with span("kl.run"):
                pass
        (record,) = out["spans"]
        assert record["name"] == "kl.run"
        assert record["kind"] == "span"
        assert "span_id" in record and "start" in record

    def test_built_even_when_body_raises(self):
        out: dict = {}
        with pytest.raises(RuntimeError):
            with collect_shipment(out):
                counter("engine_jobs_failed_total").inc()
                raise RuntimeError("job blew up")
        assert out["counters"] == {"engine_jobs_failed_total": 1}

    def test_noop_when_obs_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        out: dict = {}
        with collect_shipment(out):
            counter("kl_swaps_total").inc(5)
        assert out == {}

    def test_span_cap_counted(self):
        spans = [{"kind": "span", "name": "kl.pass"}] * (MAX_SPANS + 3)
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        payload = build_shipment(empty, empty, spans)
        assert len(payload["spans"]) == MAX_SPANS
        assert payload["dropped_spans"] == 3

    def test_series_cap_keeps_counters_first(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        after = {
            "counters": {f"c{i}_total": i + 1 for i in range(4)},
            "gauges": {f"g{i}": 1.0 for i in range(4)},
            "histograms": {},
        }
        payload = build_shipment(empty, after, [], max_series=5)
        assert len(payload["counters"]) == 4
        assert len(payload["gauges"]) == 1
        assert payload["dropped_series"] == 3


class TestMergeAlgebra:
    def test_dual_write(self):
        merge_shipment(_shipment(kl_swaps_total=5), slot=2)
        snap = REGISTRY.snapshot()["counters"]
        assert snap["kl_swaps_total"] == 5
        assert snap['kl_swaps_total{worker="2"}'] == 5

    def test_commutative(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        s1 = _shipment(kl_swaps_total=5, kl_passes_total=1)
        s2 = _shipment(kl_swaps_total=7)
        merge_shipment(s1, 0, a)
        merge_shipment(s2, 1, a)
        merge_shipment(s2, 1, b)
        merge_shipment(s1, 0, b)
        assert a.snapshot() == b.snapshot()

    def test_associative_against_serial_total(self):
        # Merging N shipments one at a time equals one big shipment.
        one_at_a_time = MetricsRegistry()
        for delta in (3, 4, 5):
            merge_shipment(_shipment(kl_swaps_total=delta), 0, one_at_a_time)
        all_at_once = MetricsRegistry()
        merge_shipment(_shipment(kl_swaps_total=12), 0, all_at_once)
        assert (
            one_at_a_time.snapshot()["counters"]["kl_swaps_total"]
            == all_at_once.snapshot()["counters"]["kl_swaps_total"]
            == 12
        )

    def test_label_safe(self):
        # A labeled worker series must not collide with other labels or
        # other slots.
        registry = MetricsRegistry()
        shipment = {
            **_shipment(),
            "counters": {'engine_jobs_total{phase="kl"}': 2},
        }
        merge_shipment(shipment, 0, registry)
        merge_shipment(shipment, 1, registry)
        snap = registry.snapshot()["counters"]
        assert snap['engine_jobs_total{phase="kl"}'] == 4
        assert snap['engine_jobs_total{phase="kl",worker="0"}'] == 2
        assert snap['engine_jobs_total{phase="kl",worker="1"}'] == 2

    def test_gauges_labeled_only(self):
        registry = MetricsRegistry()
        registry.gauge("sa_final_temperature").set(9.0)
        shipment = {**_shipment(), "gauges": {"sa_final_temperature": 0.5}}
        merge_shipment(shipment, 3, registry)
        snap = registry.snapshot()["gauges"]
        # The parent's own bare value survives; the worker's is attributed.
        assert snap["sa_final_temperature"] == 9.0
        assert snap['sa_final_temperature{worker="3"}'] == 0.5

    def test_histogram_merge_exact_on_matching_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("csr_compile_seconds", buckets=(0.1, 1.0)).observe(0.05)
        shipment = {
            **_shipment(),
            "histograms": {
                "csr_compile_seconds": {
                    "buckets": [0.1, 1.0], "counts": [1, 2, 1],
                    "sum": 3.5, "count": 4,
                }
            },
        }
        merge_shipment(shipment, 0, registry)
        merged = registry.snapshot()["histograms"]["csr_compile_seconds"]
        assert merged["counts"] == [2, 2, 1]
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(3.55)

    def test_histogram_merge_refiles_on_bucket_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("csr_compile_seconds", buckets=(0.5, 2.0)).observe(0.1)
        target = registry.histogram("csr_compile_seconds", buckets=(0.5, 2.0))
        shipment = {
            **_shipment(),
            "histograms": {
                "csr_compile_seconds": {
                    "buckets": [0.25, 1.0], "counts": [2, 3, 1],
                    "sum": 4.0, "count": 6,
                }
            },
        }
        merge_shipment(shipment, 0, registry)
        # Bare series: 0.25->first bucket (<=0.5), 1.0->second, overflow->last.
        assert target.counts == [3, 3, 1]
        assert target.count == 7
        assert target.total == pytest.approx(4.1)

    def test_drop_counts_become_a_counter(self):
        registry = MetricsRegistry()
        merge_shipment({**_shipment(), "dropped_spans": 2, "dropped_series": 3},
                       5, registry)
        snap = registry.snapshot()["counters"]
        assert snap['obs_shipment_dropped_total{worker="5"}'] == 5

    def test_noop_when_obs_off(self, monkeypatch):
        registry = MetricsRegistry()
        monkeypatch.setenv("REPRO_OBS", "0")
        merge_shipment(_shipment(kl_swaps_total=5), 0, registry)
        assert registry.snapshot()["counters"] == {}

    def test_spans_reach_the_active_run(self, tmp_path):
        shipment = {
            **_shipment(),
            "spans": [{
                "kind": "span", "name": "kl.run", "seconds": 0.25,
                "span_id": "abc.1", "start": 100.0, "ts": 100.25, "depth": 0,
            }],
        }
        with run_context(workload={}) as run:
            merge_shipment(shipment, 0)
            assert run.collector.snapshot()["kl.run"]["count"] == 1


class TestRoundTrip:
    def test_collect_then_merge_equals_direct(self):
        """The whole pipeline: work shipped out equals work done locally."""
        direct = MetricsRegistry()
        direct.counter("kl_swaps_total").inc(5)
        direct.histogram("csr_compile_seconds", buckets=(0.1, 1.0)).observe(0.5)

        out: dict = {}
        with collect_shipment(out):
            counter("kl_swaps_total").inc(5)
            histogram("csr_compile_seconds", buckets=(0.1, 1.0)).observe(0.5)
        REGISTRY.reset()
        merge_shipment(out, 0)

        merged = REGISTRY.snapshot()
        for section in ("counters", "histograms"):
            for series, value in direct.snapshot()[section].items():
                assert merged[section][series] == value
