"""E13 — end-to-end streaming query path (cursors).

What OLA-RAW motivates (incremental result delivery makes in-situ
exploration usable) made measurable: on a *cold serial scan* of a large
raw file, the streaming path must

* deliver its **first batch** well before the full-materialization
  latency of the same query (TTFB, time to first batch, << total), and
* hold **bounded memory** — the cursor's handoff queue is a few batches
  deep, so peak allocation while streaming is far below materializing
  the whole result set.

Both properties are asserted, not just reported: TTFB against the
materialized run's wall clock, peak allocation via ``tracemalloc``
(Python-side high-water mark, the layer where
``QueryResult.from_batches`` materializes).
"""

import tracemalloc

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
    uniform_table_spec,
)

from .conftest import emit_bench_artifact, print_records, scaled_rows


def _config():
    return PostgresRawConfig(stream_queue_batches=4)


def _fresh_engine(path, schema, name):
    engine = PostgresRaw(_config())
    engine.register_csv(name, path, schema)
    return engine


def _measure_materialized(path, schema, sql):
    """Cold materialized query: peak allocation + wall clock."""
    with _fresh_engine(path, schema, "t") as engine:
        tracemalloc.start()
        result = engine.query(sql)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return {
            "rows": len(result),
            "total_s": result.metrics.total_seconds,
            "peak_mib": peak / (1 << 20),
        }


def _measure_streaming(path, schema, sql):
    """Cold streamed query: consume batch-at-a-time, retain nothing."""
    with _fresh_engine(path, schema, "t") as engine:
        tracemalloc.start()
        cursor = engine.query_stream(sql)
        n_rows = 0
        first_batch_rows = None
        for batch in cursor.batches():
            if first_batch_rows is None:
                first_batch_rows = batch.num_rows
            n_rows += batch.num_rows
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        metrics = cursor.metrics
        return {
            "rows": n_rows,
            "first_batch_rows": first_batch_rows or 0,
            "ttfb_s": metrics.time_to_first_batch,
            "total_s": metrics.total_seconds,
            "peak_mib": peak / (1 << 20),
        }


def test_streaming_ttfb_and_bounded_memory(benchmark, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("streaming")
    n_rows = scaled_rows(120_000)
    path = tmp / "stream.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=10, n_rows=n_rows, width=8, seed=97)
    )
    # Full-width projection: the materialized result then costs a row
    # tuple + 10 boxed values per record, dwarfing the (shared) cost of
    # building the adaptive structures — the contrast under test.
    sql = (
        "SELECT a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 "
        "FROM t WHERE a0 >= 0"
    )

    def run():
        materialized = _measure_materialized(path, schema, sql)
        streamed = _measure_streaming(path, schema, sql)
        return [
            {"mode": "materialized", **materialized},
            {"mode": "streamed", **streamed},
        ]

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    materialized, streamed = records
    title = (
        "E13: streaming vs materialized cold serial scan "
        f"({n_rows} rows, {path.stat().st_size >> 20} MiB)"
    )
    print_records(title, records)
    benchmark.extra_info["streaming"] = records
    emit_bench_artifact(
        "streaming",
        {
            "rows": streamed["rows"],
            "ttfb_s": streamed["ttfb_s"],
            "streamed_total_s": streamed["total_s"],
            "materialized_total_s": materialized["total_s"],
            "streamed_peak_mib": streamed["peak_mib"],
            "materialized_peak_mib": materialized["peak_mib"],
        },
    )

    # Identity: streaming delivers every row the materialized run does.
    assert streamed["rows"] == materialized["rows"] > 0

    # Time-to-first-batch: the whole point.  The first batch leaves
    # after the line index and one stride, while later strides are
    # still to scan, so TTFB must land well inside the materialized
    # run's wall clock (and inside the streamed run's own).
    assert streamed["ttfb_s"] is not None
    assert streamed["ttfb_s"] < materialized["total_s"] * 0.75
    assert streamed["ttfb_s"] < streamed["total_s"]

    # Bounded memory: consuming batch-at-a-time must allocate far less
    # than materializing the result set (a few queued batches vs every
    # row tuple at once).  The strict ratio needs the
    # result set to dominate the fixed costs (decoded file, adaptive
    # structures — paid by both modes), so it is gated on scale; the
    # direction must hold regardless.
    assert streamed["peak_mib"] < materialized["peak_mib"]
    if n_rows >= 50_000:
        assert streamed["peak_mib"] < materialized["peak_mib"] * 0.6
