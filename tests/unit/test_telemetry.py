"""Unit coverage for the telemetry subsystem: registry, tracer,
slow-query log and the QueryMetrics bucket invariant."""

from __future__ import annotations

import json

import pytest

from repro.config import PostgresRawConfig
from repro.core.metrics import BreakdownComponent, QueryMetrics
from repro.telemetry import MetricsRegistry, Telemetry, Tracer


class TestRegistry:
    def test_counter_and_gauge_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc()
        reg.counter("queries").inc(2)
        reg.gauge("occupancy").set(3)
        reg.gauge("occupancy").dec()
        snap = reg.snapshot()
        assert snap["counters"]["queries"] == 3
        assert snap["gauges"]["occupancy"] == 2

    def test_labels_make_distinct_instruments(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"table": "a"}).inc()
        reg.counter("hits", {"table": "b"}).inc(5)
        snap = reg.snapshot()
        assert snap["counters"]['hits{table="a"}'] == 1
        assert snap["counters"]['hits{table="b"}'] == 5

    def test_histogram_summary_and_percentile_order(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency")
        for ms in range(1, 101):
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.100)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert snap["p50"] == pytest.approx(0.05, rel=0.5)

    def test_empty_histogram_percentile_is_none(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.percentile(0.5) is None
        assert hist.snapshot() == {"count": 0, "sum": 0.0}

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("queries_total").inc(4)
        reg.histogram("latency_seconds").observe(0.01)
        reg.register_collector("scheduler", lambda: {"active": 2})
        text = reg.prometheus_text()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 4.0" in text
        assert "repro_latency_seconds_count 1" in text
        assert 'le="+Inf"' in text
        assert "repro_scheduler_active 2" in text


class TestTracer:
    def test_span_tree_structure(self):
        tracer = Tracer()
        root = tracer.new_trace("query", sql="SELECT 1")
        with tracer.span(root, "admission") as sp:
            sp.attrs["wait_s"] = 0.0
        child = tracer.start_span(root, "produce")
        tracer.add_span(child, "scan-chunk:0", 0.002, rows=10)
        tracer.end_span(child)
        tracer.finish(root, rows=10)
        tree = tracer.trace_dict(root.trace_id)
        assert tree["trace_id"] == root.trace_id
        assert tree["n_spans"] == 4
        names = {c["name"] for c in tree["root"]["children"]}
        assert names == {"admission", "produce"}
        produce = next(
            c for c in tree["root"]["children"] if c["name"] == "produce"
        )
        assert produce["children"][0]["name"] == "scan-chunk:0"
        assert produce["children"][0]["attrs"]["rows"] == 10

    def test_finished_traces_land_in_ring(self):
        tracer = Tracer(keep=2)
        ids = []
        for i in range(3):
            root = tracer.new_trace("q", n=i)
            tracer.finish(root)
            ids.append(root.trace_id)
        recent = tracer.recent_traces()
        assert [t["trace_id"] for t in recent] == ids[1:]
        assert tracer.trace_dict(ids[0]) is None  # evicted
        stats = tracer.stats()
        assert stats["started"] == 3 and stats["finished"] == 3

    def test_span_for_trace_attaches_after_finish(self):
        tracer = Tracer()
        root = tracer.new_trace("q")
        tracer.finish(root)
        span = tracer.span_for_trace(root.trace_id, "wire:frames", qid=1)
        tracer.end_span(span, rows=3)
        tree = tracer.trace_dict(root.trace_id)
        assert tree["root"]["children"][0]["name"] == "wire:frames"

    def test_jsonl_export_roundtrips(self, tmp_path):
        telemetry = Telemetry()
        root = telemetry.tracer.new_trace("q", sql="SELECT 1")
        telemetry.tracer.finish(root)
        path = tmp_path / "traces.jsonl"
        assert telemetry.export_traces_jsonl(path) == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["trace_id"] == root.trace_id


class TestMetricsInvariant:
    def test_buckets_plus_residual_sum_exactly_to_total(self):
        m = QueryMetrics()
        m.add(BreakdownComponent.IO, 0.010)
        m.add(BreakdownComponent.TOKENIZING, 0.020)
        m.add(BreakdownComponent.CONVERT, 0.005)
        m.add(BreakdownComponent.NODB, 0.001)
        m.total_seconds = 0.050
        m.settle_processing()
        assert m.processing_seconds == pytest.approx(0.014)
        assert m.unattributed_seconds == 0.0
        assert m.accounted_seconds() + m.unattributed_seconds == (
            pytest.approx(m.total_seconds, abs=1e-12)
        )

    def test_overshoot_lands_in_negative_residual(self):
        # Attributed buckets can exceed the measured wall clock (timed
        # sections that overlap); processing clamps at zero, the
        # residual records the rest.
        m = QueryMetrics()
        m.add(BreakdownComponent.IO, 0.030)
        m.add(BreakdownComponent.TOKENIZING, 0.040)
        m.total_seconds = 0.050
        m.settle_processing()
        assert m.processing_seconds == 0.0
        assert m.unattributed_seconds == pytest.approx(-0.020)
        assert m.accounted_seconds() + m.unattributed_seconds == (
            pytest.approx(m.total_seconds, abs=1e-12)
        )

    def test_merge_carries_the_residual(self):
        a, b = QueryMetrics(), QueryMetrics()
        for m in (a, b):
            m.add(BreakdownComponent.IO, 0.02)
            m.total_seconds = 0.01
            m.settle_processing()
        a.merge(b)
        assert a.unattributed_seconds == pytest.approx(-0.02)


class TestSlowQueryLog:
    def test_note_query_records_past_threshold(self):
        telemetry = Telemetry(slow_query_s=0.001)
        root = telemetry.tracer.new_trace("query", sql="SELECT slow")
        telemetry.tracer.finish(root)
        m = QueryMetrics()
        m.add(BreakdownComponent.IO, 0.004)
        m.total_seconds = 0.005
        m.rows_scanned = 42
        m.settle_processing()
        telemetry.note_query(m, trace_id=root.trace_id, sql="SELECT slow")
        entries = telemetry.slow_queries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["sql"] == "SELECT slow"
        assert entry["rows_scanned"] == 42
        assert entry["span_tree"]["trace_id"] == root.trace_id
        assert set(entry["breakdown"]) == {
            "processing", "io", "convert", "parsing", "tokenizing",
            "nodb", "unattributed",
        }
        assert sum(entry["breakdown"].values()) == pytest.approx(
            m.total_seconds, abs=1e-12
        )
        snap = telemetry.snapshot()
        assert snap["counters"]["slow_queries_total"] == 1
        assert snap["counters"]["queries_total"] == 1

    def test_fast_queries_stay_out(self):
        telemetry = Telemetry(slow_query_s=10.0)
        m = QueryMetrics()
        m.total_seconds = 0.001
        telemetry.note_query(m)
        assert telemetry.slow_queries() == []

    def test_slow_log_exports_jsonl(self, tmp_path):
        telemetry = Telemetry(slow_query_s=0.0001)
        m = QueryMetrics()
        m.total_seconds = 1.0
        telemetry.note_query(m, sql="SELECT 1")
        path = tmp_path / "slow.jsonl"
        assert telemetry.export_slow_queries_jsonl(path) == 1
        assert json.loads(path.read_text())["sql"] == "SELECT 1"

    def test_from_config_honors_knobs(self):
        config = PostgresRawConfig(slow_query_s=0.25)
        telemetry = Telemetry.from_config(config)
        assert telemetry.slow_query_s == 0.25
