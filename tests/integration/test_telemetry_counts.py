"""Telemetry is always on, and every count has one source.

* Every query has a root span: a drained ``query()``, an inline cursor
  over an MV hit and a threaded scan cursor each leave a trace with
  ``admission``, ``plan`` and ``produce`` spans under its ``trace_id``.
* A count a component keeps for its own ``stats()`` (MV builds and
  invalidations, kernel-cache hits and misses) is reported by that
  component's collector only: no registry counter repeats it, so the
  two cannot drift.
* ``cursor_stats()["avg_ttfb_s"]`` is the ``ttfb_seconds`` histogram's
  mean.
"""

from __future__ import annotations

import pytest

from repro import PostgresRawConfig, PostgresRawService
from repro.catalog.schema import TableSchema
from repro.rawio.writer import write_csv

SCHEMA = TableSchema.from_pairs(
    [("g", "integer"), ("h", "integer"), ("v", "integer")]
)
ROWS = [(i % 4, i % 3, (i * 7) % 101 - 50) for i in range(300)]
SCAN = "SELECT g, v FROM t WHERE v > 10"
TILE = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"

#: Registry names that once mirrored a component's own count.
MIRRORED = (
    "kernel_cache_hits",
    "kernel_cache_misses",
    "kernel_build_seconds_total",
    "mv_builds_total",
    "mv_build_seconds_total",
    "mv_evictions_total",
    "mv_invalidations_total",
)
#: MV counts kept only in the registry (``mv.stats()`` reads them back).
REGISTRY_ONLY_MV = (
    "mv_hits_total",
    "mv_partial_hits_total",
    "mv_misses_total",
    "mv_tail_merges_total",
    "mv_tail_rows_total",
)


@pytest.fixture()
def service(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    with PostgresRawService(PostgresRawConfig(batch_size=16)) as service:
        service.register_csv("t", path, SCHEMA)
        yield service


def root_of(service, trace_id: str) -> dict:
    return service.telemetry.tracer.trace_dict(trace_id)["root"]


def test_every_lane_traces_admission_plan_and_produce(service):
    service.query(SCAN)
    (drained,) = service.telemetry.tracer.recent_traces(1)
    assert drained["root"]["attrs"]["sql"] == SCAN

    service.build_mv(TILE)
    inline = service.query_stream(TILE)
    assert "MVScan" in service.explain(TILE)
    inline.fetchall()

    threaded = service.query_stream(SCAN)
    threaded.fetchall()

    lanes = [
        (drained["trace_id"], "inline"),  # a drained statement
        (inline.trace_id, "inline"),
        (threaded.trace_id, "threaded"),
    ]
    assert len({trace_id for trace_id, __ in lanes}) == 3
    for trace_id, lane in lanes:
        root = root_of(service, trace_id)
        assert root["attrs"]["lane"] == lane
        names = {child["name"] for child in root["children"]}
        assert {"admission", "plan", "produce"} <= names, lane


def test_mv_invalidation_after_drop_is_counted_once(service):
    service.build_mv(TILE)
    assert service.mv.stats()["builds"] == 1
    service.drop_table("t")
    snap = service.telemetry.snapshot()
    assert snap["collectors"]["mv"]["invalidations"] == 1
    assert service.mv.catalog.invalidations == 1
    # The MV counters in the registry are the ones ``mv.stats()`` reads
    # back from it; builds, evictions and invalidations are not there.
    assert {n for n in snap["counters"] if n.startswith("mv_")} <= set(
        REGISTRY_ONLY_MV
    )
    assert not [n for n in snap["gauges"] if n.startswith("mv_")]


def test_component_counts_are_not_mirrored(service):
    service.query(SCAN)
    service.query(SCAN)
    service.build_mv(TILE)
    snap = service.telemetry.snapshot()
    assert not set(MIRRORED) & set(snap["counters"])
    assert "mv_bytes" not in snap["gauges"]

    mv = snap["collectors"]["mv"]
    assert mv["builds"] == 1 and mv["build_seconds"] > 0.0
    assert mv["bytes"] > 0
    assert mv["evictions"] == 0 and mv["invalidations"] == 0
    kernels = snap["collectors"]["kernels"]
    assert kernels == service.kernel_cache.stats()
    assert kernels["misses"] >= 1 and kernels["hits"] >= 1
    assert kernels["build_seconds"] > 0.0


def test_avg_ttfb_is_the_histogram_mean(service):
    assert service.cursor_stats()["avg_ttfb_s"] is None
    for __ in range(3):
        service.query_stream(SCAN).fetchall()
    service.query(SCAN)
    hist = service.telemetry.snapshot()["histograms"]["ttfb_seconds"]
    assert hist["count"] == 4
    assert service.cursor_stats()["avg_ttfb_s"] == hist["mean"]
