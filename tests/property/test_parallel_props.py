"""Property-based tests for the parallel chunked scan: for arbitrary
files and chunk geometries, chunking loses no rows, duplicates no rows,
and the parallel scan is row-for-row (and structure-for-structure)
equivalent to the serial scan."""

import numpy as np
from hypothesis import given, settings, strategies as st

from governed import cache_layout, record_touches
from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.parallel.chunker import plan_file_chunks
from repro.rawio.tokenizer import build_line_index, trim_cr

# --- generated raw files ---------------------------------------------

field_text = st.text(
    alphabet=st.sampled_from("abcxyz0189 _"), min_size=0, max_size=6
)
row = st.tuples(st.integers(-9999, 9999), field_text, st.integers(0, 99))
rows_strategy = st.lists(row, min_size=1, max_size=120)
newline = st.sampled_from(["\n", "\r\n"])

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "text"), ("c", "integer")]
)


def _render(rows, nl, terminate):
    body = nl.join(f"{a},{b},{c}" for a, b, c in rows)
    return "a,b,c" + nl + body + (nl if terminate else "")


# --- chunker: no row lost, none duplicated ---------------------------


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    nl=newline,
    terminate=st.booleans(),
    target=st.integers(1, 200),
    cap=st.integers(1, 9),
)
def test_file_chunks_partition_bytes_and_records(
    tmp_path_factory, rows, nl, terminate, target, cap
):
    tmp = tmp_path_factory.mktemp("chunks")
    path = tmp / "t.csv"
    data = _render(rows, nl, terminate).encode()
    path.write_bytes(data)

    specs = plan_file_chunks(path, target, cap)
    # Exact partition: concatenating the chunks re-creates the file.
    assert specs[0].start == 0 and specs[-1].end == len(data)
    assert all(a.end == b.start for a, b in zip(specs[:-1], specs[1:]))
    reassembled = b"".join(data[s.start : s.end] for s in specs)
    assert reassembled == data
    # Record-boundary alignment: line counts per chunk sum to the total
    # (no record split across chunks, none lost, none duplicated).
    total_lines = data.count(b"\n")
    per_chunk = [data[s.start : s.end].count(b"\n") for s in specs]
    assert sum(per_chunk) == total_lines
    for s in specs[1:]:
        assert data[s.start - 1 : s.start] == b"\n"


# --- parallel scan == serial scan ------------------------------------


def _compare_engines(
    path, workers, chunk_bytes, backend, queries, check_cache=True
):
    # check_cache=False only for process-backend cold scans, where
    # chunk-local batching may legitimately cache a different prefix of
    # the projection columns under a selective predicate; everything
    # else (results, bounds, positional map) must always match, and the
    # default thread backend must match on cache content too.
    serial = PostgresRaw()
    serial.register_csv("t", path, SCHEMA)
    parallel = PostgresRaw(
        PostgresRawConfig(
            scan_workers=workers,
            parallel_chunk_bytes=chunk_bytes,
            parallel_backend=backend,
        )
    )
    parallel.register_csv("t", path, SCHEMA)
    record_touches(serial), record_touches(parallel)
    for sql in queries:
        assert serial.query(sql).rows == parallel.query(sql).rows
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
        assert serial.touches == parallel.touches


QUERIES = [
    "SELECT a, c FROM t WHERE c < 50",
    "SELECT b FROM t",
    "SELECT a FROM t WHERE b = 'abc'",
]


@settings(max_examples=30, deadline=None)
@given(
    rows=rows_strategy,
    nl=newline,
    terminate=st.booleans(),
    workers=st.integers(2, 6),
    chunk_bytes=st.integers(8, 400),
)
def test_parallel_scan_equals_serial_scan(
    tmp_path_factory, rows, nl, terminate, workers, chunk_bytes
):
    tmp = tmp_path_factory.mktemp("par")
    path = tmp / "t.csv"
    path.write_bytes(_render(rows, nl, terminate).encode())
    _compare_engines(path, workers, chunk_bytes, "thread", QUERIES)


@settings(max_examples=10, deadline=None)
@given(
    rows=rows_strategy,
    terminate=st.booleans(),
    workers=st.integers(2, 4),
    chunk_bytes=st.integers(16, 300),
)
def test_parallel_process_backend_equals_serial(
    tmp_path_factory, rows, terminate, workers, chunk_bytes
):
    tmp = tmp_path_factory.mktemp("proc")
    path = tmp / "t.csv"
    path.write_bytes(_render(rows, "\n", terminate).encode())
    _compare_engines(
        path, workers, chunk_bytes, "process", QUERIES[:1], check_cache=False
    )


@settings(max_examples=25, deadline=None)
@given(
    head=rows_strategy,
    tail=rows_strategy,
    workers=st.integers(2, 5),
    chunk_bytes=st.integers(8, 300),
)
def test_parallel_append_tail_equals_serial(
    tmp_path_factory, head, tail, workers, chunk_bytes
):
    tmp = tmp_path_factory.mktemp("tail")
    path = tmp / "t.csv"
    path.write_bytes(_render(head, "\n", True).encode())

    serial = PostgresRaw()
    serial.register_csv("t", path, SCHEMA)
    parallel = PostgresRaw(
        PostgresRawConfig(
            scan_workers=workers, parallel_chunk_bytes=chunk_bytes
        )
    )
    parallel.register_csv("t", path, SCHEMA)
    warm = "SELECT a FROM t WHERE c < 50"
    assert serial.query(warm).rows == parallel.query(warm).rows

    with open(path, "a", newline="") as f:
        f.write("".join(f"{a},{b},{c}\n" for a, b, c in tail))
    for sql in QUERIES:
        assert serial.query(sql).rows == parallel.query(sql).rows
    spm = serial.table_state("t").positional_map
    ppm = parallel.table_state("t").positional_map
    assert np.array_equal(spm.line_bounds, ppm.line_bounds)
    for sc, pc in zip(
        sorted(spm.entries(), key=lambda c: c.attrs),
        sorted(ppm.entries(), key=lambda c: c.attrs),
    ):
        assert sc.attrs == pc.attrs
        assert np.array_equal(sc.offsets, pc.offsets)


# --- record bounds are chunking-compatible ---------------------------


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, terminate=st.booleans())
def test_crlf_record_bounds_compose_over_chunks(
    tmp_path_factory, rows, terminate
):
    """Per-chunk line indexes and CR trims concatenate to the whole
    file's (chunk cuts always sit after a newline, so a CRLF pair never
    straddles chunks)."""
    tmp = tmp_path_factory.mktemp("nl")
    path = tmp / "t.csv"
    data = _render(rows, "\r\n", terminate).encode()
    path.write_bytes(data)

    def records(chunk, has_header, base):
        bounds = build_line_index(chunk, has_header, base)
        starts, ends = bounds[:-1], bounds[1:] - 1
        buf = np.frombuffer(chunk, dtype=np.uint8)
        return starts.tolist(), trim_cr(buf, starts, ends, base).tolist()

    starts, ends = [], []
    for spec in plan_file_chunks(path, 40, 8):
        chunk = data[spec.start : spec.end]
        s, e = records(chunk, spec.index == 0, spec.start)
        starts += s
        ends += e
    assert (starts, ends) == records(data, True, 0)
    assert [data[s:e] for s, e in zip(starts, ends)] == [
        f"{a},{b},{c}".encode() for a, b, c in rows
    ]
