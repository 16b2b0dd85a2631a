"""Behavioural tests for the parallel chunked raw scan (repro.parallel):
routing, serial-equivalence of results and adaptive structures, metrics
accounting, and the boundary edge cases found in the raw-scan audit."""

import numpy as np
import pytest

from governed import cache_layout, record_touches
from repro import (
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
    uniform_table_spec,
)
from repro.catalog.schema import TableSchema
from repro.core.metrics import QueryMetrics
from repro.monitor.breakdown import render_worker_breakdown
from repro.rawio.dialect import CsvDialect
from repro.rawio.writer import append_csv_rows

N_ROWS = 6000
PARALLEL = PostgresRawConfig(scan_workers=4, parallel_chunk_bytes=16 * 1024)


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "t.csv"
    schema = generate_csv(path, uniform_table_spec(6, N_ROWS, seed=11))
    return path, schema


def _engines(path, schema, parallel_config=PARALLEL):
    serial = PostgresRaw()
    serial.register_csv("t", path, schema)
    parallel = PostgresRaw(parallel_config)
    parallel.register_csv("t", path, schema)
    return record_touches(serial), record_touches(parallel)


def _assert_same_state(serial, parallel, check_cache=True):
    # check_cache=False for process-backend *cold* scans: selective
    # tuple formation decides per chunk-local batch there, so which
    # projection columns end up cached can differ from serial (results,
    # bounds and the positional map never do).  The default thread
    # backend is exact on everything.
    spm = serial.table_state("t").positional_map
    ppm = parallel.table_state("t").positional_map
    assert np.array_equal(spm.line_bounds, ppm.line_bounds)
    schunks = sorted(spm.entries(), key=lambda c: c.attrs)
    pchunks = sorted(ppm.entries(), key=lambda c: c.attrs)
    assert [(c.attrs, c.rows) for c in schunks] == [
        (c.attrs, c.rows) for c in pchunks
    ]
    for sc, pc in zip(schunks, pchunks):
        assert np.array_equal(sc.offsets, pc.offsets)
    if check_cache:
        assert cache_layout(serial) == cache_layout(parallel)
        # Which query last touched each entry decides eviction order.
        assert serial.touches == parallel.touches


class TestColdParallelScan:
    def test_cold_scan_routes_through_pool(self, raw_file):
        path, schema = raw_file
        __, parallel = _engines(path, schema)
        result = parallel.query("SELECT a1 FROM t")
        assert result.metrics.parallel_scans == 1
        assert result.metrics.parallel_chunks > 1
        assert len(result.metrics.worker_breakdowns) == (
            result.metrics.parallel_chunks
        )

    def test_results_and_structures_match_serial(self, raw_file):
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        sql = "SELECT a1, a4 FROM t WHERE a2 < 500000"
        assert serial.query(sql).rows == parallel.query(sql).rows
        _assert_same_state(serial, parallel)

    def test_projection_only_query_matches(self, raw_file):
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        sql = "SELECT a5 FROM t"
        assert serial.query(sql).rows == parallel.query(sql).rows
        _assert_same_state(serial, parallel)

    def test_warm_query_goes_serial_again(self, raw_file):
        path, schema = raw_file
        __, parallel = _engines(path, schema)
        parallel.query("SELECT a1 FROM t")
        repeat = parallel.query("SELECT a1 FROM t")
        assert repeat.metrics.parallel_scans == 0
        assert repeat.metrics.worker_breakdowns == []

    def test_small_file_stays_serial(self, tmp_path):
        path = tmp_path / "small.csv"
        schema = generate_csv(path, uniform_table_spec(4, 50, seed=2))
        engine = PostgresRaw(PARALLEL)
        engine.register_csv("t", path, schema)
        result = engine.query("SELECT a0 FROM t")
        assert result.metrics.parallel_scans == 0

    def test_process_backend_matches_serial(self, raw_file):
        path, schema = raw_file
        config = PARALLEL.with_overrides(parallel_backend="process")
        serial, parallel = _engines(path, schema, config)
        sql = "SELECT a0, a3 FROM t WHERE a1 < 300000"
        assert serial.query(sql).rows == parallel.query(sql).rows
        _assert_same_state(serial, parallel, check_cache=False)

    def test_count_star_matches(self, raw_file):
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        sql = "SELECT COUNT(*) FROM t WHERE a3 < 250000"
        assert serial.query(sql).rows == parallel.query(sql).rows

    def test_plain_count_star_does_not_redispatch(self, raw_file):
        # A zero-attribute scan counts tuple boundaries the line index
        # already knows; repeats must not fan out the pool again.
        path, schema = raw_file
        __, parallel = _engines(path, schema)
        parallel.query("SELECT COUNT(*) FROM t")
        repeat = parallel.query("SELECT COUNT(*) FROM t")
        assert repeat.metrics.parallel_scans == 0

    def test_predicate_cache_content_matches_serial(self, tmp_path):
        # Regression: a chunk whose local batch happens to be fully
        # qualifying must not cache projection columns the serial scan
        # would skip (thread backend is exact; cuts are batch-aligned).
        path = tmp_path / "t.csv"
        schema = TableSchema.from_pairs(
            [("a", "integer"), ("b", "integer"), ("c", "integer")]
        )
        lines = ["a,b,c"] + [f"{i},{i},{i % 100}" for i in range(9000)]
        path.write_text("\n".join(lines) + "\n")
        serial, parallel = _engines(
            path, schema, PARALLEL.with_overrides(parallel_chunk_bytes=4096)
        )
        sql = "SELECT a FROM t WHERE c < 50"
        assert serial.query(sql).rows == parallel.query(sql).rows
        _assert_same_state(serial, parallel)


class TestTailParallelScan:
    def test_append_tail_goes_parallel_and_matches(self, raw_file):
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        sql = "SELECT a1, a3 FROM t WHERE a2 < 400000"
        serial.query(sql), parallel.query(sql)
        rng = np.random.default_rng(5)
        rows = [
            tuple(int(v) for v in rng.integers(0, 999999, 6))
            for _ in range(3 * N_ROWS)
        ]
        append_csv_rows(path, rows, schema)
        s2, p2 = serial.query(sql), parallel.query(sql)
        assert s2.rows == p2.rows
        assert p2.metrics.parallel_scans == 1
        _assert_same_state(serial, parallel)

    def test_tail_statistics_match_serial_exactly(self, raw_file):
        # Tail chunks are cut at global batch_size multiples, so even
        # the reservoir sampler sees identical batches.
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        sql = "SELECT a1 FROM t"
        serial.query(sql), parallel.query(sql)
        rows = [(i, i, i, i, i, i) for i in range(3 * N_ROWS)]
        append_csv_rows(path, rows, schema)
        serial.query("SELECT a4 FROM t"), parallel.query("SELECT a4 FROM t")
        s = serial.table_state("t").statistics.get("a4")
        p = parallel.table_state("t").statistics.get("a4")
        assert s.rows_seen == p.rows_seen
        assert s.sample.dtype == p.sample.dtype
        assert np.array_equal(s.sample, p.sample)

    def test_process_backend_tail_matches(self, raw_file):
        path, schema = raw_file
        config = PARALLEL.with_overrides(parallel_backend="process")
        serial, parallel = _engines(path, schema, config)
        serial.query("SELECT a1 FROM t"), parallel.query("SELECT a1 FROM t")
        rows = [(i, i, i, i, i, i) for i in range(2 * N_ROWS)]
        append_csv_rows(path, rows, schema)
        sql = "SELECT a1, a2 FROM t WHERE a1 < 400000"
        assert serial.query(sql).rows == parallel.query(sql).rows
        _assert_same_state(serial, parallel)

    def test_rewrite_invalidates_then_cold_parallel(self, raw_file):
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        sql = "SELECT a0, a2 FROM t WHERE a1 < 600000"
        serial.query(sql), parallel.query(sql)
        # Rewrite the file in place: everything must be rebuilt.
        schema2 = generate_csv(path, uniform_table_spec(6, N_ROWS, seed=99))
        assert len(schema2) == 6
        s2, p2 = serial.query(sql), parallel.query(sql)
        assert s2.rows == p2.rows
        assert p2.metrics.parallel_scans == 1  # cold again after rewrite
        _assert_same_state(serial, parallel)

    def test_anchor_recency_matches_serial(self, raw_file):
        # LRU metadata parity: a tail scan must refresh recency only on
        # anchors it actually jumped from (attr > 0), exactly like the
        # serial scan — otherwise eviction under budget pressure would
        # diverge between the two paths.
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        rng = np.random.default_rng(3)
        for sql in ("SELECT a4 FROM t", None, "SELECT a0 FROM t",
                    "SELECT a3 FROM t"):
            if sql is None:
                rows = [
                    tuple(int(v) for v in rng.integers(0, 999999, 6))
                    for _ in range(2 * N_ROWS)
                ]
                append_csv_rows(path, rows, schema)
                continue
            serial.query(sql), parallel.query(sql)
        assert serial.touches == parallel.touches

    def test_anchored_tail_tokenizes_from_anchor(self, raw_file):
        # Map knows a0..a2 (from SELECT a1); the appended tail then
        # needs a5: workers must anchor at a3 exactly like the serial
        # scan, so both install the same (3..5)-span chunk.
        path, schema = raw_file
        serial, parallel = _engines(path, schema)
        serial.query("SELECT a2 FROM t"), parallel.query("SELECT a2 FROM t")
        serial.query("SELECT a5 FROM t"), parallel.query("SELECT a5 FROM t")
        _assert_same_state(serial, parallel)


class TestParallelMetrics:
    def test_worker_buckets_and_stack_add_up(self, raw_file):
        path, schema = raw_file
        __, parallel = _engines(path, schema)
        metrics = parallel.query("SELECT a1, a2 FROM t").metrics
        assert metrics.parallel_scan_seconds > 0
        # Figure 3 invariant: the six buckets still sum to total.
        assert metrics.accounted_seconds() == pytest.approx(
            metrics.total_seconds, abs=1e-6
        )
        for breakdown in metrics.worker_breakdowns:
            assert breakdown["rows"] > 0
            assert breakdown["tokenizing"] >= 0

    def test_worker_panel_renders(self, raw_file):
        path, schema = raw_file
        __, parallel = _engines(path, schema)
        metrics = parallel.query("SELECT a1 FROM t").metrics
        text = render_worker_breakdown(metrics)
        assert "chunk 0" in text
        assert "serial" in render_worker_breakdown(QueryMetrics())

    def test_merge_carries_parallel_counters(self, raw_file):
        path, schema = raw_file
        __, parallel = _engines(path, schema)
        a = parallel.query("SELECT a1 FROM t").metrics
        total = a.__class__()
        total.merge(a)
        assert total.parallel_chunks == a.parallel_chunks
        assert len(total.worker_breakdowns) == len(a.worker_breakdowns)


class TestBoundaryEdgeCases:
    """Regression tests from the chunk/record boundary audit."""

    TEXT2 = TableSchema.from_pairs([("a", "text"), ("b", "text")])

    def test_crlf_last_field_has_no_carriage_return(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\nfoo,hello\r\nbar,world\r\n")
        engine = PostgresRaw()
        engine.register_csv("t", path, self.TEXT2)
        assert engine.query("SELECT a, b FROM t").rows == [
            ("foo", "hello"),
            ("bar", "world"),
        ]

    def test_crlf_null_token_detected(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\nfoo,\r\nbar,x\r\n")
        engine = PostgresRaw()
        engine.register_csv("t", path, self.TEXT2)
        assert engine.query("SELECT b FROM t").rows == [(None,), ("x",)]

    def test_crlf_positional_map_repeat_query(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"a,b\r\n" + b"".join(b"k%d,v%d\r\n" % (i, i) for i in range(50))
        )
        engine = PostgresRaw()
        engine.register_csv("t", path, self.TEXT2)
        first = engine.query("SELECT b FROM t").rows
        second = engine.query("SELECT b FROM t").rows  # via positional map
        assert first == second == [(f"v{i}",) for i in range(50)]

    def test_crlf_parallel_matches_serial(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"a,b\r\n"
            + b"".join(b"key%06d,val%06d\r\n" % (i, i) for i in range(4000))
        )
        serial, parallel = _engines(
            path,
            self.TEXT2,
            PARALLEL.with_overrides(parallel_chunk_bytes=4096),
        )
        sql = "SELECT a, b FROM t"
        assert serial.query(sql).rows == parallel.query(sql).rows
        _assert_same_state(serial, parallel)

    def test_unterminated_final_record(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_bytes(b"a,b\nx,1\ny,2")  # no trailing newline
        engine = PostgresRaw()
        engine.register_csv("t", path, self.TEXT2)
        assert engine.query("SELECT a, b FROM t").rows == [
            ("x", "1"),
            ("y", "2"),
        ]

    def test_unterminated_final_record_parallel(self, tmp_path):
        path = tmp_path / "u.csv"
        body = b"a,b\n" + b"".join(
            b"key%06d,val%06d\n" % (i, i) for i in range(3999)
        )
        path.write_bytes(body + b"last_key,last_val")
        serial, parallel = _engines(
            path,
            self.TEXT2,
            PARALLEL.with_overrides(parallel_chunk_bytes=4096),
        )
        sql = "SELECT a, b FROM t"
        srows, prows = serial.query(sql).rows, parallel.query(sql).rows
        assert srows == prows
        assert srows[-1] == ("last_key", "last_val")
        _assert_same_state(serial, parallel)

    def test_header_only_file_then_append(self, tmp_path):
        # Regression: a cold parallel scan of a header-only file must
        # keep the end-of-header sentinel in the merged line index, or a
        # later append re-tokenizes the header line as data.
        path = tmp_path / "h.csv"
        path.write_bytes(b"a" * 300 + b",b\n")  # wide header, no rows
        schema = TableSchema.from_pairs(
            [("a" * 300, "text"), ("b", "integer")]
        )
        serial = PostgresRaw()
        serial.register_csv("t", path, schema)
        parallel = PostgresRaw(
            PARALLEL.with_overrides(
                parallel_chunk_bytes=64, parallel_backend="process"
            )
        )
        parallel.register_csv("t", path, schema)
        sql = "SELECT b FROM t"
        assert serial.query(sql).rows == parallel.query(sql).rows == []
        spm = serial.table_state("t").positional_map
        ppm = parallel.table_state("t").positional_map
        assert np.array_equal(spm.line_bounds, ppm.line_bounds)
        with open(path, "ab") as f:
            f.write(b"x,1\ny,2\n")
        assert serial.query(sql).rows == parallel.query(sql).rows == [
            (1,),
            (2,),
        ]

    def test_trailing_newline_adds_no_phantom_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\nx,1\n")
        engine = PostgresRaw()
        engine.register_csv("t", path, self.TEXT2)
        assert engine.query("SELECT a FROM t").rows == [("x",)]

    def test_quoted_dialect_parallel_matches_serial(self, tmp_path):
        path = tmp_path / "q.csv"
        lines = ["a,b"] + [f'"x,{i}",{i}' for i in range(4000)]
        path.write_text("\n".join(lines) + "\n")
        schema = TableSchema.from_pairs([("a", "text"), ("b", "integer")])
        dialect = CsvDialect(quote_char='"')
        serial = PostgresRaw()
        serial.register_csv("t", path, schema, dialect)
        parallel = PostgresRaw(
            PARALLEL.with_overrides(parallel_chunk_bytes=8192)
        )
        parallel.register_csv("t", path, schema, dialect)
        sql = "SELECT a, b FROM t WHERE b < 2000"
        assert serial.query(sql).rows == parallel.query(sql).rows
