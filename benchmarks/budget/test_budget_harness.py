"""Unit tests of the budget benchmark's own machinery (tier-1, fast).

The benchmark judges every later PR, so its arithmetic — percentiles,
self-time attribution, op lists, the oracle — is tested like product
code.  Nothing here measures anything.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import datagen
import oracle
import report
import spans
from repro import PostgresRaw
from spans import WAIT, Target, Tracer, attribute
from workloads import Sample


def span(name, start, end, parent=-1, counters=None, leaves=None):
    return [name, start, end, parent, counters, leaves]


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule.
# ----------------------------------------------------------------------


def test_percentile_interpolates_and_handles_edges():
    assert report.percentile([5.0], 0.9) == 5.0
    assert report.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert report.percentile(list(range(101)), 0.9) == 90.0
    assert report.percentile([3.0, 1.0, 2.0], 0.0) == 1.0
    with pytest.raises(ValueError):
        report.percentile([], 0.5)


def test_sample_count_rule():
    # A median needs the class floor, a tail ten samples beyond it.
    assert not report.supported(35, 0.5)
    assert report.supported(36, 0.5)
    assert not report.supported(99, 0.9)
    assert report.supported(100, 0.9)
    assert not report.supported(144, 0.95)  # why there is no p95


def fake_samples(per_class: int, slowdown: float = 1.0) -> list[Sample]:
    """Ops of 10 ms at reference speed, on a box ``slowdown`` x slower."""
    samples = []
    for i in range(per_class):
        for kind in oracle.CLASSES:
            t0 = float(len(samples))
            raw = 0.010 * slowdown
            sample = Sample(kind, t0, t0 + raw, raw / 2, True, None, raw)
            sample.ref_client = sample.ref_server = slowdown
            samples.append(sample)
    return samples


def test_end_to_end_refuses_thin_classes():
    samples = fake_samples(35)
    report.normalize(samples)
    stats = {"peak_rss_kib": 1024, "state_bytes": 1 << 20}
    with pytest.raises(RuntimeError, match="too few samples"):
        report.end_to_end(samples, [1.0], [0.5], stats)


def test_normalizing_cancels_the_machine_speed():
    stats = {"peak_rss_kib": 1024, "state_bytes": 1 << 20}
    results = []
    for slowdown in (1.0, 1.28):
        samples = fake_samples(36, slowdown)
        report.normalize(samples)
        results.append(report.end_to_end(samples, [1.0], [0.5], stats))
    fast, slow = results
    assert fast["point_p50_ms"][0] == pytest.approx(10.0)
    assert fast["projection_ttfb_p50_ms"][0] == pytest.approx(5.0)
    assert fast["ops_per_s"][0] == pytest.approx(100.0)
    for name in fast:
        assert slow[name][0] == pytest.approx(fast[name][0]), name


def test_waiting_scales_with_the_server_core():
    # wire_mix: 2 ms of client CPU on a core at nominal speed, 8 ms
    # waiting for a server whose core runs 1.25x slow.
    sample = Sample("point", 0.0, 0.010, None, True, None, 0.002)
    sample.ref_server = 1.25
    report.normalize([sample])
    assert sample.seconds == pytest.approx(0.002 + 0.008 / 1.25)


# ----------------------------------------------------------------------
# Self time: nested, sibling, cross-thread, leaves.
# ----------------------------------------------------------------------


def test_self_time_nested_and_sibling_spans():
    thread = [
        span("outer", 0.0, 10.0),
        span("child_a", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child_b", 5.0, 9.0, parent=0),
    ]
    (op,) = attribute([(0.0, 10.0)], [thread])
    assert op.self_seconds == pytest.approx(
        {"outer": 3.0, "child_a": 2.0, "grandchild": 1.0, "child_b": 4.0}
    )
    assert op.unattributed == pytest.approx(0.0)
    assert op.calls == {
        "outer": 1, "child_a": 1, "grandchild": 1, "child_b": 1
    }


def test_wait_span_yields_to_work_in_another_thread(monkeypatch):
    monkeypatch.setattr(spans, "WAIT_SPANS", frozenset({"wait"}))
    consumer = [span("wait", 1.0, 9.0)]
    producer = [span("scan", 2.0, 6.0), span("agg", 6.0, 7.0)]
    (op,) = attribute([(0.0, 10.0)], [consumer, producer])
    # The consumer only keeps the instants nobody was working in.
    assert op.self_seconds == pytest.approx(
        {"wait": 3.0, "scan": 4.0, "agg": 1.0}
    )
    assert op.raw_seconds["wait"] == pytest.approx(8.0)
    assert op.unattributed == pytest.approx(2.0)
    parts = sum(op.self_seconds.values()) + op.unattributed
    assert parts == pytest.approx(op.wall)


def test_concurrent_work_splits_evenly_and_still_sums_to_wall():
    a = [span("a", 0.0, 4.0)]
    b = [span("b", 2.0, 6.0)]
    (op,) = attribute([(0.0, 8.0)], [a, b])
    assert op.self_seconds == pytest.approx({"a": 3.0, "b": 3.0})
    assert op.unattributed == pytest.approx(2.0)


def test_spans_attach_to_the_op_they_start_in_and_leaves_take_a_share():
    thread = [
        span("before", 0.0, 0.5),
        span("scan", 1.0, 3.0, leaves={"extract": [40, 0.5]}),
        span("late", 5.0, 6.0, counters={"rows_out": 7}),
    ]
    first, second = attribute([(1.0, 4.0), (4.5, 7.0)], [thread])
    assert first.self_seconds == pytest.approx(
        {"scan": 1.5, "extract": 0.5}
    )
    assert first.calls == {"scan": 1, "extract": 40}
    assert second.counters == {"rows_out": 7}
    assert second.self_seconds == pytest.approx({"late": 1.0})


# ----------------------------------------------------------------------
# The tracer itself.
# ----------------------------------------------------------------------


def test_generator_spans_time_each_next_and_nest_children():
    tracer = Tracer()

    def inner():
        for i in range(2):
            time.sleep(0.002)
            yield i

    traced_inner = tracer._wrap_generator(inner, Target("inner", "m", "f"))

    def outer():
        for item in traced_inner():
            time.sleep(0.002)
            yield item

    traced_outer = tracer._wrap_generator(outer, Target("outer", "m", "f"))
    assert list(traced_outer()) == [0, 1]
    (thread,) = tracer.dump()["threads"]
    names = [s[spans.NAME] for s in thread["spans"]]
    # One span per next(), including the two that raise StopIteration.
    assert names.count("outer") == 3 and names.count("inner") == 3
    first_outer = thread["spans"][0]
    first_inner = thread["spans"][1]
    assert first_inner[spans.PARENT] == 0
    assert first_outer[spans.START] <= first_inner[spans.START]
    assert first_inner[spans.END] <= first_outer[spans.END]
    inner_s = first_inner[spans.END] - first_inner[spans.START]
    outer_s = first_outer[spans.END] - first_outer[spans.START]
    assert inner_s >= 0.002 and outer_s >= inner_s + 0.002


def test_install_resolves_every_target_and_uninstall_restores():
    from repro.executor.operators import HashAggregate
    from repro.service.streaming import BatchChannel
    from repro.sql import parser
    import repro.service.service as service_module

    originals = (
        parser.parse_select,
        service_module.parse_select,
        BatchChannel.get,
        HashAggregate.execute,
    )
    tracer = Tracer()
    tracer.install()  # raises if a public callable was renamed
    try:
        assert parser.parse_select is not originals[0]
        # ``from .parser import parse_select`` copies are patched too.
        assert service_module.parse_select is parser.parse_select
        assert BatchChannel.get is not originals[2]
    finally:
        tracer.uninstall()
    assert (
        parser.parse_select,
        service_module.parse_select,
        BatchChannel.get,
        HashAggregate.execute,
    ) == originals
    assert spans.WAIT_SPANS == {
        t.span for t in spans.TABLE if t.kind == WAIT
    }
    assert {t.span for t in spans.TABLE} <= set(report.LAYER_OF)


# ----------------------------------------------------------------------
# Op lists.
# ----------------------------------------------------------------------


def test_op_list_is_a_function_of_the_seed():
    shares = (6, 5, 5, 4)
    a = oracle.make_ops(3, 200, 1000, shares)
    assert a == oracle.make_ops(3, 200, 1000, shares)
    b = oracle.make_ops(4, 200, 1000, shares)
    assert a != b
    # Same class pattern whatever the seed; every 20-op window has
    # the declared mix; a filter_agg signature never repeats.
    assert [op.kind for op in a] == [op.kind for op in b]
    window = [op.kind for op in a[20:40]]
    assert [window.count(k) for k in oracle.CLASSES] == list(shares)
    filters = [op.params for op in a if op.kind == "filter_agg"]
    assert len(set(filters)) == len(filters)
    # A shorter list is a prefix in kinds (mix holds for any length).
    short = oracle.make_ops(3, 50, 1000, shares)
    assert [op.kind for op in short] == [op.kind for op in a[:50]]


# ----------------------------------------------------------------------
# Oracle vs engine, both formats, all four classes.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_oracle_agrees_with_engine_on_a_small_table(tmp_path, fmt):
    table = datagen.generate(340, seed=5, initial_rows=300)
    path = datagen.write_table(table, tmp_path / f"t.{fmt}", fmt)
    ops = oracle.make_ops(5, 20, 300, (5, 5, 5, 5))
    # Thresholds sized for the big tables still select rows here.
    assert {op.kind for op in ops} == set(oracle.CLASSES)
    with PostgresRaw() as engine:
        if fmt == "csv":
            engine.register_csv("t", path, datagen.SCHEMA)
        else:
            engine.register_jsonl("t", path, datagen.SCHEMA)
        for op in ops:
            got = [engine.query(sql).rows for sql in op.statements()]
            want = oracle.expected(op, table)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert oracle.rows_match(g, w), (op, g[:3], w[:3])
        if fmt == "jsonl":
            # The external writer: the oracle follows the file.
            datagen.append_events(table, path, count=40)
            assert table.n == 340
            (tile,) = oracle.expected(oracle.Op("dashboard"), table)[3:]
            assert engine.query(oracle.DASHBOARD_TILES[3]).rows == tile


def test_rows_match_is_order_insensitive_and_float_tolerant():
    want = [("a", 1, 0.1 + 0.2), ("b", 2, 1.0)]
    assert oracle.rows_match([("b", 2, 1.0), ("a", 1, 0.3)], want)
    assert not oracle.rows_match([("b", 2, 1.0), ("a", 1, 0.31)], want)
    assert not oracle.rows_match([("a", 1, 0.3)], want)
    assert not oracle.rows_match([("a", 2, 0.3), ("b", 2, 1.0)], want)


# ----------------------------------------------------------------------
# BENCHMARK.json says what run.py prints.
# ----------------------------------------------------------------------


def test_benchmark_json_names_match_the_harness():
    spec_path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    assert spec["paths"] == ["benchmarks/budget"]

    attribution = spans.OpAttribution(1.0, {}, 1.0, {}, {}, {})
    stats = dict.fromkeys(
        ("pm_bytes", "cache_bytes", "state_bytes", "governor_evictions"), 0
    )
    extra = dict.fromkeys(
        (
            "sharding.scatter_plan_us",
            "sharding.merge_ms",
            "bench.trace_overhead_pct",
            "code.src_lines",
            "code.config_knobs",
        ),
        (0.0, "x"),
    )
    samples = fake_samples(36)
    report.normalize(samples)
    stats.update(peak_rss_kib=1)
    end_to_end = report.end_to_end(samples, [1.0], [1.0], stats)
    assert {n: u for n, (_, u) in end_to_end.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    layer = report.per_layer(report.Aggregate([attribution]), stats, extra)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layer) == set(declared)
    for name, (_, unit) in layer.items():
        if name not in extra:
            assert unit == declared[name], name
