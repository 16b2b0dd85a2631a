"""Every monitoring panel must render on a fresh engine — no queries,
no traffic, no tables — without raising.  The panels are the first
thing an operator opens on a new deployment; a crash on empty state is
a worse bug than a wrong number."""

from __future__ import annotations

import pytest

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
)
from repro.monitor import (
    BreakdownReport,
    SystemMonitorPanel,
    connections_report,
    governor_report,
    render_attribute_usage,
    render_breakdown,
    render_concurrency_panel,
    render_connections_panel,
    render_governor_panel,
)


@pytest.fixture
def fresh_engine(small_csv):
    path, schema = small_csv
    with PostgresRaw() as engine:
        engine.register_csv("t", path, schema)
        yield engine


def test_breakdown_panel_empty_report():
    assert render_breakdown(BreakdownReport()) == "(no data)"


def test_system_panel_renders_before_any_query(fresh_engine):
    state = fresh_engine._states["t"]
    panel = SystemMonitorPanel(state)
    panel.snapshot()
    text = panel.render()
    assert "cache" in text.lower()


def test_attribute_usage_empty(fresh_engine):
    state = fresh_engine._states["t"]
    assert render_attribute_usage(state) == "(no attributes accessed yet)"


def test_governor_panel_fresh_default_service():
    with PostgresRawService() as service:
        report = governor_report(service)
        assert report["stats"]["used_bytes"] == 0
        assert report["residency"] == []
        text = render_governor_panel(service)
        assert "global budget" in text


def test_governor_panel_fresh_service_with_budget():
    config = PostgresRawConfig(memory_budget=1 << 20)
    with PostgresRawService(config) as service:
        report = governor_report(service)
        assert report["stats"]["used_bytes"] == 0
        text = render_governor_panel(service)
        assert "global budget" in text


def test_concurrency_panel_fresh_service():
    with PostgresRawService() as service:
        text = render_concurrency_panel(service)
        assert "0 active" in text
        assert "(no batches streamed yet)" in text
        # No queries yet: the latency percentile line must be absent,
        # not rendered from an empty histogram.
        assert "query latency" not in text


def test_connections_panel_started_but_idle_server():
    with PostgresRawService() as service:
        server = RawServer(service, host="127.0.0.1", port=0)
        with server:
            report = connections_report(server)
            assert report["open"] == 0
            assert report["accepted"] == 0
            text = render_connections_panel(server)
            assert "0/"
            assert "connections" in text


def test_panels_render_from_registry_snapshot():
    # The panels and the STATS command must read the same snapshot.
    with PostgresRawService() as service:
        snap = service.telemetry.registry.snapshot()
        assert {"scheduler", "cursors", "locks", "governor", "residency",
                "traces"} <= set(snap["collectors"])


def test_shard_panel_renders_empty_and_minimal():
    from repro.monitor import render_shard_panel, shard_report

    assert shard_report({}) == []
    assert "no shards" in render_shard_panel({})
    stats = {
        "shards": [{"counters": {}}, {"counters": {"x.queries": 3}}],
        "totals": {"counters": {"x.queries": 3}},
        "client": {"routed": 1, "scattered": 2},
    }
    text = render_shard_panel(stats)
    assert "2 shards" in text
    assert "1 routed / 2 scattered" in text
    assert "shard 0" in text and "shard 1" in text
