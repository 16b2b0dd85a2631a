"""Telemetry end-to-end: a traced streamed query over the wire yields
one connected span tree under a single trace_id, retrievable via the
STATS command; the stats server-push stream round-trips through
repro.client; traces and slow queries export as JSONL."""

from __future__ import annotations

import json

import pytest

import repro.client
from repro import (
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
    generate_csv,
    uniform_table_spec,
)

SQL = "SELECT a0, a1 FROM t WHERE a2 < 500000"


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=6, n_rows=6_000, seed=7)
    )
    return path, schema


@pytest.fixture
def served(table_csv):
    """A service behind a server."""
    path, schema = table_csv
    config = PostgresRawConfig(
        batch_size=256,
        slow_query_s=1e-9,  # everything lands in the slow-query log
    )
    with PostgresRawService(config) as service:
        service.register_csv("t", path, schema)
        server = RawServer(service, port=0).start()
        try:
            yield service, server
        finally:
            server.stop()


def span_names(tree):
    """Flatten a span tree into the set of span names."""
    names = set()

    def walk(node):
        names.add(node["name"])
        for child in node.get("children", []):
            walk(child)

    walk(tree["root"])
    return names


class TestTracedWireQuery:
    def test_one_connected_span_tree_for_streamed_query(self, served):
        service, server = served
        with repro.client.Connection("127.0.0.1", server.port) as conn:
            cursor = conn.cursor(SQL)
            rows = cursor.fetchall().rows
            assert rows  # the query actually streamed
            cursor.close()
            trace_id = cursor.trace_id
            assert trace_id is not None  # END stamped it

            payload = conn.stats(trace_id=trace_id)
            tree = payload["trace"]
            assert tree is not None
            assert tree["trace_id"] == trace_id
            names = span_names(tree)
            # Session -> admission -> locks -> produce -> pump -> wire.
            assert "admission" in names
            assert "lock:t" in names
            assert "produce" in names and "pump" in names
            assert "wire:frames" in names
            # One tree: every span hangs off the single root.
            assert tree["root"]["name"] == "query"
            assert tree["n_spans"] == len(names)

        # The same tree is retrievable engine-side.
        local = service.telemetry.tracer.trace_dict(trace_id)
        assert local is not None and span_names(local) >= names

    def test_stats_snapshot_carries_engine_counters(self, served):
        service, server = served
        with repro.client.Connection("127.0.0.1", server.port) as conn:
            conn.query(SQL)
            payload = conn.stats()
            stats = payload["stats"]
            assert stats["counters"]["queries_total"] >= 1
            assert stats["histograms"]["query_latency_seconds"]["count"] >= 1
            assert stats["collectors"]["scheduler"]["admitted"] >= 1
            assert stats["collectors"]["server"]["queries"] >= 1
            # The snapshot is wire-JSON round-trippable by construction.
            json.dumps(payload)

    def test_stats_stream_pushes_and_closes(self, served):
        service, server = served
        with repro.client.Connection("127.0.0.1", server.port) as conn:
            with conn.stats_stream(interval_s=0.05) as updates:
                first = next(updates)
                second = next(updates)
            assert "stats" in first and "stats" in second
            assert first["stats"]["collectors"]["server"]["open"] >= 1
            # Subscription did not consume the query-stream budget, and
            # the connection still serves queries after the close.
            assert conn.active_streams == 0
            assert conn.query(SQL).rows

    def test_stats_does_not_count_against_stream_limit(self, table_csv):
        path, schema = table_csv
        with PostgresRawService(PostgresRawConfig()) as service:
            service.register_csv("t", path, schema)
            with RawServer(
                service, port=0, max_streams_per_connection=1
            ) as server:
                with repro.client.Connection("127.0.0.1", server.port) as conn:
                    with conn.stats_stream(interval_s=0.05) as updates:
                        next(updates)
                        # One allowed query stream still opens fine.
                        assert conn.query(SQL).rows

    def test_slow_query_log_records_breakdown_and_span_tree(self, served):
        service, server = served
        with repro.client.Connection("127.0.0.1", server.port) as conn:
            conn.query(SQL)
        entries = service.telemetry.slow_queries()
        assert entries
        entry = entries[-1]
        assert entry["sql"] == SQL
        assert "unattributed" in entry["breakdown"]
        assert sum(entry["breakdown"].values()) == pytest.approx(
            entry["total_seconds"], abs=1e-9
        )
        assert entry["span_tree"] is not None
        assert entry["trace_id"] == entry["span_tree"]["trace_id"]

    def test_jsonl_exports_parse(self, served, tmp_path):
        service, server = served
        with repro.client.Connection("127.0.0.1", server.port) as conn:
            conn.query(SQL)
        traces = tmp_path / "traces.jsonl"
        slow = tmp_path / "slow.jsonl"
        n_traces = service.telemetry.export_traces_jsonl(traces)
        n_slow = service.telemetry.export_slow_queries_jsonl(slow)
        assert n_traces >= 1 and n_slow >= 1
        for line in traces.read_text().splitlines():
            record = json.loads(line)
            assert "trace_id" in record and "root" in record
        for line in slow.read_text().splitlines():
            assert "breakdown" in json.loads(line)
