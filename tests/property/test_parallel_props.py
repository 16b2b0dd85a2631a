"""Property-based tests for the parallel chunked scan: for arbitrary
files and chunk geometries, the row cuts lose no row and duplicate none,
and on either pool backend the parallel scan is row-for-row (and
structure-for-structure) equivalent to the serial scan.

``REPRO_ORACLE_EXAMPLES`` sets the examples of the cold-scan
equivalence properties (``make oracle`` runs them at 250 under a fixed
seed); unset, the thread backend runs 30 and the process backend 10.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from governed import cache_layout, record_touches
from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.parallel.chunker import chunk_count, row_cuts
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


# --- row cuts: no row lost, none duplicated --------------------------


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    nl=newline,
    terminate=st.booleans(),
    target=st.integers(1, 200),
    batch=st.integers(1, 9),
    tail_batches=st.integers(0, 20),
)
def test_file_chunks_partition_bytes_and_records(
    rows, nl, terminate, target, batch, tail_batches
):
    data = _render(rows, nl, terminate).encode()
    bounds = build_line_index(data, has_header=True)
    n_rows = len(bounds) - 1
    tail_from = min(tail_batches, (n_rows - 1) // batch) * batch

    cuts = row_cuts(bounds, tail_from, n_rows, batch, target)
    tail_bytes = int(bounds[n_rows] - bounds[tail_from])
    assert len(cuts) - 1 <= chunk_count(tail_bytes, target, None)
    assert cuts[0] == tail_from and cuts[-1] == n_rows
    assert all(a < b for a, b in zip(cuts[:-1], cuts[1:]))
    # Inner cuts are serial batch cuts, and sit just after a newline.
    assert all(c % batch == 0 for c in cuts[:-1])
    assert all(data[bounds[c] - 1 : bounds[c]] == b"\n" for c in cuts[1:-1])
    # Exact partition: each worker's byte range holds its rows whole,
    # and the ranges re-create the tail.
    ranges = [
        (int(bounds[r0]), int(bounds[r1]) - 1)
        for r0, r1 in zip(cuts[:-1], cuts[1:])
    ]
    for (r0, r1), (a, b) in zip(zip(cuts[:-1], cuts[1:]), ranges):
        assert data[a:b].count(b"\n") == r1 - r0 - 1
    tail = b"".join(data[a : b + 1] for a, b in ranges)
    assert tail == data[int(bounds[tail_from]) :]


# --- parallel scan == serial scan ------------------------------------


def _examples(default):
    return int(os.environ.get("REPRO_ORACLE_EXAMPLES", default))


def _compare_engines(path, workers, chunk_bytes, backend, queries):
    config = PostgresRawConfig(
        scan_workers=workers,
        parallel_chunk_bytes=chunk_bytes,
        parallel_backend=backend,
    )
    # Closing both engines shuts the process backend's pool down with
    # the example, not with the session.
    with PostgresRaw() as serial, PostgresRaw(config) as parallel:
        serial.register_csv("t", path, SCHEMA)
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
        assert cache_layout(serial) == cache_layout(parallel)
        assert serial.touches == parallel.touches


QUERIES = [
    "SELECT a, c FROM t WHERE c < 50",
    "SELECT b FROM t",
    "SELECT a FROM t WHERE b = 'abc'",
]


@settings(max_examples=_examples(30), deadline=None)
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


@settings(max_examples=_examples(10), deadline=None)
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
    _compare_engines(path, workers, chunk_bytes, "process", QUERIES)


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
def test_crlf_record_bounds_compose_over_chunks(rows, terminate):
    """CR trims computed per chunk, over only the byte range its worker
    reads, concatenate to the whole file's (a cut always sits after a
    newline, so a CRLF pair never straddles chunks)."""
    data = _render(rows, "\r\n", terminate).encode()
    bounds = build_line_index(data, has_header=True)
    n_rows = len(bounds) - 1

    def ends(r0, r1):
        start = int(bounds[r0])
        buf = np.frombuffer(data[start : int(bounds[r1]) - 1], np.uint8)
        line_ends = bounds[r0 + 1 : r1 + 1] - 1
        return trim_cr(buf, bounds[r0:r1], line_ends, start).tolist()

    cuts = row_cuts(bounds, 0, n_rows, 4, 40)
    per_chunk = [ends(r0, r1) for r0, r1 in zip(cuts[:-1], cuts[1:])]
    assert sum(per_chunk, []) == ends(0, n_rows)
    records = [data[s:e] for s, e in zip(bounds[:-1], ends(0, n_rows))]
    assert records == [f"{a},{b},{c}".encode() for a, b, c in rows]
