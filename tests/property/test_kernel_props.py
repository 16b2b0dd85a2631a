"""Property-based tests for the vectorized scan kernels: for arbitrary
generated files — ASCII and unicode, NULL-heavy, LF / CRLF / mixed line
ends, unterminated final lines, a leading byte-order mark — the same
bytes registered under the unquoted dialect (scan kernel) and under the
same dialect with a quote character (the RFC-4180 state machine, the
scalar tokenizer) answer row-for-row and structure-for-structure
identically, serially, with 4-worker pools and streamed.  The text
alphabet holds no quote, so both dialects read the same fields."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from governed import cache_layout, record_touches
from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.errors import RawDataError
from repro.executor.result import batch_rows
from repro.kernels.convert import _SCALAR_ROWS as SCALAR_ROWS
from repro.rawio.dialect import CsvDialect

# --- generated raw files ---------------------------------------------

# Integer-ish fields: mostly clean, some that force the scalar
# fallback (signs, padding, huge magnitudes) and some plain invalid.
int_field = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(0, 10**6).map(lambda v: f"{v:08d}"),
    st.integers(0, 10**6).map(lambda v: f"+{v}"),
    st.sampled_from(["0", "-0", str(10**17), str(10**19)]),
)
float_field = st.one_of(
    st.integers(-(10**6), 10**6).map(lambda v: f"{v / 1000:.3f}"),
    st.sampled_from([".5", "5.", "-0.0", "1e3", "0.000001"]),
    st.integers(0, 999).map(lambda v: f"{v}.{v:06d}"),
)
# Text fields: ASCII and multi-byte unicode (shifting byte/char maps).
text_field = st.text(
    alphabet=st.sampled_from("abXYZ 09_é世界"), max_size=6
)

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "float"), ("c", "text"), ("d", "integer")]
)
NULL_TOKEN = "NULL"


@st.composite
def raw_files(draw, null_heavy=False):
    n_rows = draw(st.integers(1, 60))
    null_p = 0.6 if null_heavy else 0.1
    rows = []
    for _ in range(n_rows):
        cells = [
            draw(int_field),
            draw(float_field),
            draw(text_field),
            draw(int_field),
        ]
        for i in (0, 1, 3):
            if draw(st.floats(0, 1)) < null_p:
                cells[i] = NULL_TOKEN
        rows.append(cells)
    # About one file in four has a row of 1, 3 or 5 fields: both
    # tokenizers must fail it with the same error.
    bad = draw(st.integers(0, 4 * n_rows - 1))
    if bad < n_rows:
        width = draw(st.sampled_from([1, 3, 5]))
        rows[bad] = (rows[bad] + ["7"])[:width]
    # Line ends: all LF, all CRLF, or mixed per line; the last line may
    # be unterminated; the file may start with a byte-order mark.
    style = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [
        draw(st.sampled_from(["\n", "\r\n"])) if style == "mixed" else style
        for _ in range(n_rows + 1)
    ]
    if not draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if draw(st.booleans()) else ""
    lines = ["a,b,c,d"] + [",".join(cells) for cells in rows]
    return bom + "".join(line + end for line, end in zip(lines, ends))


QUERIES = [
    "SELECT a, b FROM t WHERE d < 1000",
    "SELECT c FROM t",
    "SELECT a, c, d FROM t",
    "SELECT b FROM t WHERE a < 0",
]

DIALECT = CsvDialect(null_token=NULL_TOKEN)
#: The same dialect with quoting: not kernel-eligible, so it runs the
#: state machine over the same quote-free bytes.
QUOTED = CsvDialect(null_token=NULL_TOKEN, quote_char='"')


def _engine(path, dialect, config=None):
    eng = PostgresRaw(config)
    eng.register_csv("t", path, SCHEMA, dialect)
    return record_touches(eng)


def _outcome(eng, sql):
    """Rows, or the error identity — both paths must agree on either."""
    try:
        return ("rows", eng.query(sql).rows)
    except Exception as exc:  # noqa: BLE001 - identity is the assertion
        return ("error", type(exc).__name__, str(exc))


def _assert_equivalent(kernel_eng, scalar_eng):
    errored = False
    for sql in QUERIES:
        kout = _outcome(kernel_eng, sql)
        assert kout == _outcome(scalar_eng, sql)
        errored |= kout[0] == "error"
    if errored:
        # Identical errors are the assertion; partially-built adaptive
        # structures after an aborted scan are not compared.
        return
    kpm = kernel_eng.table_state("t").positional_map
    lpm = scalar_eng.table_state("t").positional_map
    assert np.array_equal(kpm.line_bounds, lpm.line_bounds)
    kchunks = sorted(kpm.entries(), key=lambda c: c.attrs)
    lchunks = sorted(lpm.entries(), key=lambda c: c.attrs)
    assert [(c.attrs, c.rows) for c in kchunks] == [
        (c.attrs, c.rows) for c in lchunks
    ]
    for kc, lc in zip(kchunks, lchunks):
        assert np.array_equal(kc.offsets, lc.offsets)
    assert cache_layout(kernel_eng) == cache_layout(scalar_eng)
    assert kernel_eng.touches == scalar_eng.touches


@settings(max_examples=40, deadline=None)
@given(content=raw_files())
def test_kernel_scan_equals_scalar_serial(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("kern") / "t.csv"
    path.write_text(content, encoding="utf-8", newline="")
    _assert_equivalent(_engine(path, DIALECT), _engine(path, QUOTED))


@settings(max_examples=25, deadline=None)
@given(content=raw_files(null_heavy=True))
def test_kernel_scan_equals_scalar_null_heavy(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("kern_null") / "t.csv"
    path.write_text(content, encoding="utf-8", newline="")
    _assert_equivalent(_engine(path, DIALECT), _engine(path, QUOTED))


@settings(max_examples=15, deadline=None)
@given(content=raw_files(), backend=st.sampled_from(["thread", "process"]))
def test_kernel_scan_equals_scalar_parallel(
    tmp_path_factory, content, backend
):
    path = tmp_path_factory.mktemp("kern_par") / "t.csv"
    path.write_text(content, encoding="utf-8", newline="")
    config = PostgresRawConfig(
        scan_workers=4, parallel_chunk_bytes=97, parallel_backend=backend
    )
    _assert_equivalent(
        _engine(path, DIALECT, config), _engine(path, QUOTED, config)
    )


@settings(max_examples=20, deadline=None)
@given(content=raw_files())
def test_kernel_streaming_equals_blocking(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("kern_stream") / "t.csv"
    path.write_text(content, encoding="utf-8", newline="")
    eng = _engine(path, DIALECT)
    blocking = _engine(path, QUOTED)
    for sql in QUERIES:
        try:
            streamed = []
            with eng.query_stream(sql) as cursor:
                for batch in cursor.batches():
                    streamed.extend(
                        batch_rows(batch, cursor.column_names)
                    )
            out = ("rows", streamed)
        except Exception as exc:  # noqa: BLE001
            out = ("error", type(exc).__name__, str(exc))
        assert out == _outcome(blocking, sql)


# --- TEXT: the kernel's dictionary encode against the scalar one -------

#: ``make oracle`` runs the TEXT property at 250 examples.
TEXT_EXAMPLES = int(os.environ.get("REPRO_ORACLE_EXAMPLES", "25"))

TEXT_SCHEMA = TableSchema.from_pairs(
    [("id", "integer"), ("s", "text"), ("t", "text")]
)
TEXT_QUERIES = [
    "SELECT s FROM t",
    "SELECT id, s, t FROM t WHERE id < 20",
    "SELECT t, s FROM t",
    "SELECT s FROM t",  # again: served by the cache
]

# Multi-byte UTF-8 (2, 3 and 4 bytes per character), fields ending in a
# NUL byte, one outlier-wide field and empty fields (the NULL token).
text_bytes = st.one_of(
    st.text(alphabet=st.sampled_from("ab é世😀_"), max_size=7).map(
        lambda t: t.encode("utf-8")
    ),
    st.sampled_from(
        [b"a\x00", b"\x00a", b"ab", b"ba", b"\xc3\xa9\x00", b"a", b""]
    ),
    st.just(("w" * 150 + "é").encode("utf-8")),
)
#: Bytes that are not UTF-8: a stray continuation byte, a truncated
#: 3-byte sequence, an invalid start byte.
invalid_bytes = st.sampled_from([b"\x80", b"\xe4\xb8", b"x\xff"])


@st.composite
def text_files(draw):
    """A headed CSV of ``id,s,t`` rows as bytes, and the file offset of
    the first ``s`` field that is not UTF-8 (``None``: there is none).
    Rows are drawn from small pools of fields, so batches hold repeated
    values, and are few or more than the kernel encodes value by value
    (``SCALAR_ROWS``), so both of its paths run."""
    # Every pool holds distinct fields of one length (and one that only
    # a trailing NUL tells apart), so equal-length fields must be told
    # apart by their bytes.
    pool_s = draw(st.lists(text_bytes, max_size=6)) + [b"ab", b"a\x00"]
    pool_t = draw(st.lists(text_bytes, max_size=6)) + [b"ba", b"a"]
    # A few rows take the kernel's few-rows path, more its vectorized one.
    n_rows = draw(
        st.one_of(
            st.integers(1, 20),
            st.integers(SCALAR_ROWS + 1, SCALAR_ROWS + 120),
        )
    )
    picks = st.lists(st.integers(0, 63), min_size=n_rows, max_size=n_rows)
    s_picks, t_picks = draw(picks), draw(picks)
    # Most files have no invalid field, some one or two.
    broken = set(draw(st.lists(st.integers(0, 3 * n_rows), max_size=2)))
    out = bytearray(b"id,s,t\n")
    first_invalid = None
    for row in range(n_rows):
        if row in broken:
            s = draw(invalid_bytes)
        else:
            s = pool_s[s_picks[row] % len(pool_s)]
        t = pool_t[t_picks[row] % len(pool_t)]
        line = b"%d," % row
        if row in broken and first_invalid is None:
            first_invalid = len(out) + len(line)
        out += line + s + b"," + t + b"\n"
    return bytes(out), first_invalid


def _text_engine(path, dialect, batch_size, workers):
    # Chunks long enough for a worker's vectorized encode.
    config = PostgresRawConfig(
        batch_size=batch_size, scan_workers=workers, parallel_chunk_bytes=4096
    )
    eng = PostgresRaw(config)
    eng.register_csv("t", path, TEXT_SCHEMA, dialect)
    return eng


@settings(max_examples=TEXT_EXAMPLES, deadline=None)
@given(
    case=text_files(),
    batch_size=st.sampled_from([3, 4096]),
    workers=st.sampled_from([1, 2]),
)
def test_kernel_text_equals_scalar(
    tmp_path_factory, case, batch_size, workers
):
    content, first_invalid = case
    path = tmp_path_factory.mktemp("kern_text") / "t.csv"
    path.write_bytes(content)
    kernel = _text_engine(path, CsvDialect(), batch_size, workers)
    scalar = _text_engine(
        path, CsvDialect(quote_char='"'), batch_size, workers
    )
    for sql in TEXT_QUERIES:
        kout = _outcome(kernel, sql)
        assert kout == _outcome(scalar, sql)
    if first_invalid is None:
        assert kout[0] == "rows"
        return
    with pytest.raises(RawDataError) as exc:
        kernel.query("SELECT s FROM t")
    assert exc.value.offset == first_invalid
    assert f"byte offset {first_invalid} " in str(exc.value)
