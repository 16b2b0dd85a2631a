"""Property-based tests for the vectorized scan kernels: for arbitrary
generated files — ASCII and unicode, NULL-heavy, LF / CRLF / mixed line
ends, unterminated final lines, a leading byte-order mark — the same
bytes registered under the unquoted dialect (scan kernel) and under the
same dialect with a quote character (the RFC-4180 state machine, the
scalar tokenizer) answer row-for-row and structure-for-structure
identically, serially (one batch per scan, and batches of 3 and 7
rows, so the kernel's delimiter grid starts and ends at many row
ranges) and streamed.  The text alphabet holds no
quote, so both dialects read the same fields.  The numeric converters
are held to the scalar ``int`` / ``float`` column converter directly.

The JSONL kernel is held to ``parse_record``: the same value offsets,
converted vectors and map-jump ends on every window it reads, and the
same answers or errors through an engine with the kernel and without."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from governed import cache_layout, record_touches
from repro import PostgresRaw, PostgresRawConfig
from repro.batch import ColumnVector
from repro.catalog.schema import TableSchema
from repro.datatypes import DataType, convert_column
from repro.errors import ConversionError, RawDataError
from repro.executor.result import batch_rows
from repro.formats.jsonl import JSONL_ADAPTER, JSONL_NULL, JsonLinesAdapter
from repro.kernels import ContentBuffer, ScanKernel, convert_span
from repro.kernels import jsonl as jsonl_kernel
from repro.kernels import make_signature
from repro.kernels.convert import _SCALAR_ROWS as SCALAR_ROWS
from repro.rawio.dialect import CsvDialect
from repro.rawio.tokenizer import build_line_index, trim_cr


def _examples(default):
    """``default`` examples, or ``make oracle``'s count (250): it runs
    the numeric, TEXT and JSONL properties and the serial
    kernel-vs-state-machine scans."""
    return int(os.environ.get("REPRO_ORACLE_EXAMPLES", default))


ORACLE_EXAMPLES = _examples(25)


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
    # tokenizers must fail it with the same error.  Some put it at the
    # first or last row of a batch of 3 or 7 rows, and some pair a
    # 5-field row with a 3-field one a row or two away, which balances
    # the delimiter count of the rows between.
    bad = draw(st.integers(0, 4 * n_rows - 1))
    if bad < n_rows:
        if draw(st.booleans()):
            bad = draw(
                st.sampled_from(
                    [r for r in range(n_rows) if r % 3 != 1 or r % 7 in (0, 6)]
                )
            )
        other = bad + draw(st.integers(1, 2))
        if other < n_rows and draw(st.booleans()):
            if draw(st.booleans()):
                bad, other = other, bad
            rows[bad] = rows[bad] + ["7"]
            rows[other] = rows[other][:3]
        else:
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


#: Rows per batch: one tokenize call per scan (the default), or many.
batch_sizes = st.sampled_from([3, 7, PostgresRawConfig().batch_size])


@settings(max_examples=_examples(40), deadline=None)
@given(content=raw_files(), batch_size=batch_sizes)
def test_kernel_scan_equals_scalar_serial(
    tmp_path_factory, content, batch_size
):
    path = tmp_path_factory.mktemp("kern") / "t.csv"
    path.write_text(content, encoding="utf-8", newline="")
    config = PostgresRawConfig(batch_size=batch_size)
    _assert_equivalent(
        _engine(path, DIALECT, config), _engine(path, QUOTED, config)
    )


@settings(max_examples=_examples(25), deadline=None)
@given(content=raw_files(null_heavy=True), batch_size=batch_sizes)
def test_kernel_scan_equals_scalar_null_heavy(
    tmp_path_factory, content, batch_size
):
    path = tmp_path_factory.mktemp("kern_null") / "t.csv"
    path.write_text(content, encoding="utf-8", newline="")
    config = PostgresRawConfig(batch_size=batch_size)
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


# --- INTEGER / FLOAT: the word parsers against int() / float() --------


def _digits(n):
    """``n`` digits, led by a nonzero one or zero-padded."""
    if n == 0:
        return st.just("")
    return st.one_of(
        st.integers(10 ** (n - 1), 10**n - 1).map(str),
        st.integers(0, 10**n - 1).map(lambda v: str(v).zfill(n)),
    )


#: 0..20 digits, the lengths around the words' 16-digit reach often.
digit_runs = st.sampled_from([*range(21), 16, 17, 18]).flatmap(_digits)


#: Numeric texts taken as they are.
NUMERIC_EDGES = [
    str(-(2**63)),
    str(2**63 - 1),
    "0",
    "-0",
    ".5",
    "5.",
    "-.5",
    ".",
    "1e3",
    "nan",
    NULL_TOKEN,
    "",
]


@st.composite
def numeric_texts(draw):
    """Digit runs, signed or not, with zero, one or two dots and maybe
    a stray byte; or an edge case."""
    if draw(st.sampled_from([True, False, False, False, False])):
        return draw(st.sampled_from(NUMERIC_EDGES))
    digits = draw(digit_runs)
    for __ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        spot = draw(st.integers(0, len(digits)))
        digits = digits[:spot] + "." + digits[spot:]
    if draw(st.sampled_from([True, False, False, False, False])):
        spot = draw(st.integers(0, len(digits)))
        stray = draw(st.sampled_from([" ", "_", "e", "１", "-"]))
        digits = digits[:spot] + stray + digits[spot:]
    return draw(st.sampled_from(["", "", "-", "+"])) + digits


@st.composite
def numeric_windows(draw):
    """A window of fields joined by commas, as ``(bytes, base, texts,
    starts, ends)``; the first and last fields often touch the window's
    edges, and few short fields make windows under 16 bytes."""
    texts = draw(st.lists(numeric_texts(), min_size=1, max_size=12))
    lead = draw(st.sampled_from(["", "", "9", "x" * 17]))
    tail = draw(st.sampled_from(["", "", "\n", ",7"]))
    data = (lead + ",".join(texts) + tail).encode("utf-8")
    base = draw(st.sampled_from([0, 1000]))
    starts, ends, pos = [], [], base + len(lead.encode("utf-8"))
    for text in texts:
        size = len(text.encode("utf-8"))
        starts.append(pos)
        ends.append(pos + size)
        pos += size + 1
    starts = np.array(starts, dtype=np.int64)
    return data, base, texts, starts, np.array(ends, dtype=np.int64)


def _numeric(convert):
    """Values and nulls (bit for bit), or the error identity."""
    try:
        values, nulls = convert()
    except Exception as exc:  # noqa: BLE001 - identity is the assertion
        row = getattr(exc, "row", None)
        return ("error", type(exc).__name__, str(exc), row)
    return ("vector", values.tobytes(), nulls.tobytes())


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(
    window=numeric_windows(),
    dtype=st.sampled_from([DataType.INTEGER, DataType.FLOAT]),
)
def test_convert_span_equals_convert_column(window, dtype):
    data, base, texts, starts, ends = window
    cbuf = ContentBuffer(data, base)

    def assert_rows_agree(rows):
        def ours():
            vector = convert_span(
                cbuf, starts[rows], ends[rows], dtype, NULL_TOKEN, 5
            )
            return vector.values, vector.null_mask

        assert _numeric(ours) == _numeric(
            lambda: convert_column(texts[rows], dtype, NULL_TOKEN, 5)
        )

    assert_rows_agree(slice(None))
    # Row by row too: the first error of a window hides the rows after
    # it.
    for row in range(len(texts)):
        assert_rows_agree(slice(row, row + 1))


# --- TEXT: the kernel's dictionary encode against the scalar one -------

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


def _text_engine(path, dialect, batch_size):
    eng = PostgresRaw(PostgresRawConfig(batch_size=batch_size))
    eng.register_csv("t", path, TEXT_SCHEMA, dialect)
    return eng


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(
    case=text_files(),
    batch_size=st.sampled_from([3, 4096]),
)
def test_kernel_text_equals_scalar(tmp_path_factory, case, batch_size):
    content, first_invalid = case
    path = tmp_path_factory.mktemp("kern_text") / "t.csv"
    path.write_bytes(content)
    kernel = _text_engine(path, CsvDialect(), batch_size)
    scalar = _text_engine(path, CsvDialect(quote_char='"'), batch_size)
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


# --- JSONL: the structural-index kernel against parse_record -----------

JSONL_SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "float"), ("c", "text"), ("d", "boolean")]
)
JSONL_KEYS = tuple(JSONL_SCHEMA.names())
JSONL_DTYPES = tuple(JSONL_SCHEMA.dtypes())
#: Per column: values it converts, JSON null among them.  Strings hold
#: structural bytes, blanks, the word null and multi-byte UTF-8.
json_values = {
    "a": st.one_of(
        st.integers(-(10**6), 10**6).map(str),
        st.sampled_from(["null", '"17"', "-0", "007"]),
    ),
    "b": st.one_of(
        st.integers(-8000, 8000).map(lambda v: repr(v / 8)),
        st.sampled_from(["null", "1e3", "-0.0", '"2.5"']),
    ),
    "c": st.one_of(
        st.text(alphabet=st.sampled_from("ab ,:}{[]é"), max_size=6).map(
            lambda t: json.dumps(t, ensure_ascii=False)
        ),
        st.sampled_from(["null", '"null"', '""', "17", "true"]),
    ),
    "d": st.sampled_from(["true", "false", "null", '"true"']),
}
#: Some windows' values: tokens their column does not convert, and
#: escaped strings: ``\\``, ``é`` and, in some windows, ``\"``.
odd_values = {
    "a": st.sampled_from(["true", "1.5", '"x"']),
    "b": st.sampled_from(["x", "true"]),
    "c": st.text(alphabet=st.sampled_from("a\\é"), max_size=4).map(
        json.dumps
    ),
    "d": st.sampled_from(["0", "1x"]),
}
escaped_quotes = st.text(alphabet=st.sampled_from('a"'), max_size=3).map(
    json.dumps
)
blanks = st.sampled_from(["", " ", "\t", " \t "])
#: The ways a record may deviate from the schema's flat shape.
MUTATIONS = (
    "reorder",
    "missing",
    "extra",
    "renamed",
    "duplicate",
    "nested",
    "junk",
    "trailing",
    "empty",
)


def _render(members, layout, trailing=""):
    """One record line: ``members`` are ``(key, value token)`` pairs,
    ``layout`` the blanks around its tokens."""
    lead, open_, close, tail, around_colon, around_comma = layout
    body = around_comma.join(
        f'"{key}"{around_colon}:{around_colon}{value}'
        for key, value in members
    )
    return f"{lead}{{{open_}{body}{close}}}{tail}{trailing}"


def _window(lines, end, closed, clean):
    content = end.join(lines) + (end if closed else "")
    return content.encode("utf-8"), clean and "\\" not in content


@st.composite
def jsonl_windows(draw):
    """A window of flat JSONL records, and the same window with each
    kind of deviation in one of its records; each as ``(bytes, clean)``
    where ``clean`` says every record reads as the kernel needs: the
    schema's keys once each in the first record's order, flat values,
    nothing after the ``}`` and no backslash in the window."""
    n_records = draw(st.integers(1, 16))
    values = dict(json_values)
    for key in draw(st.sets(st.sampled_from(JSONL_KEYS), max_size=2)):
        values[key] = st.one_of(values[key], odd_values[key])
    if draw(st.integers(0, 7)) == 0:
        values["c"] = st.one_of(values["c"], escaped_quotes)
    records = [
        (
            [(key, draw(values[key])) for key in JSONL_KEYS],
            tuple(draw(blanks) for __ in range(4))
            + (draw(blanks), draw(blanks) + "," + draw(blanks)),
        )
        for __ in range(n_records)
    ]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    closed = draw(st.booleans())
    lines = [_render(*record) for record in records]
    windows = [_window(lines, end, closed, True)]
    for kind in MUTATIONS:
        at = draw(st.integers(0, n_records - 1))
        members, layout = records[at]
        members, trailing = list(members), ""
        if kind == "reorder":
            members = draw(st.permutations(members))
        elif kind == "missing":
            del members[draw(st.integers(0, len(members) - 1))]
        elif kind == "extra":
            spot = draw(st.integers(0, len(members)))
            members.insert(spot, ("zz", draw(values["a"])))
        elif kind == "renamed":
            spot = draw(st.integers(0, len(members) - 1))
            key, value = members[spot]
            members[spot] = (draw(st.sampled_from([key + "x", "zz"])), value)
        elif kind == "duplicate":
            key = members[0][0]
            members.append((key, draw(values[key])))
        elif kind == "nested":
            spot = draw(st.integers(0, len(members) - 1))
            nested = draw(st.sampled_from(['{"x": 1}', "[1, 2]", "[]"]))
            members[spot] = (members[spot][0], nested)
        elif kind == "junk":
            spot = draw(st.integers(0, len(members) - 1))
            junk = draw(
                st.sampled_from(['1"2"', '"a"b', "1 2", '"x"y"z"', '"', "-"])
            )
            members[spot] = (members[spot][0], junk)
        elif kind == "trailing":
            trailing = draw(st.sampled_from([" x", "x", ",", "}", ' "a"']))
        mutated = list(lines)
        mutated[at] = "" if kind == "empty" else _render(
            members, layout, trailing
        )
        # A reordered record is clean when it is the window's only one.
        clean = kind == "reorder" and n_records == 1
        windows.append(_window(mutated, end, closed, clean))
    return windows


def _converted(convert):
    try:
        vector = convert()
    except (ConversionError, RawDataError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("vector", vector.to_pylist())


JSONL_QUERIES = [
    "SELECT a FROM t WHERE b > 0",  # tokenizes: the map learns all keys
    "SELECT c, d FROM t",  # map jumps
    "SELECT a, b, c, d FROM t WHERE a < 100",
]


def _jsonl_outcomes(path):
    with PostgresRaw(PostgresRawConfig(batch_size=8)) as eng:
        eng.register_jsonl("t", path, JSONL_SCHEMA)
        return [_outcome(eng, sql) for sql in JSONL_QUERIES]


#: Every window and map jump goes to the kernel, however small, and
#: windows are indexed three records at a time.
_EVERY_WINDOW = {"MIN_RECORDS": 1, "MIN_VALUES": 1, "CHUNK_RECORDS": 3}


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(windows=jsonl_windows())
def test_jsonl_kernel_equals_parse_record(tmp_path_factory, windows):
    for data, clean in windows:
        _assert_jsonl_kernel_equals_parse_record(tmp_path_factory, data, clean)


def _assert_jsonl_kernel_equals_parse_record(tmp_path_factory, data, clean):
    bounds = build_line_index(data)
    cbuf = ContentBuffer(data)
    starts = bounds[:-1]
    line_ends = trim_cr(cbuf.buf, starts, bounds[1:] - 1)
    n_attrs = len(JSONL_KEYS)
    kernel = ScanKernel(
        make_signature(
            JSONL_ADAPTER.default_dialect(),
            JSONL_DTYPES,
            0,
            n_attrs - 1,
            fmt="jsonl",
            names=JSONL_KEYS,
        )
    )
    with mock.patch.multiple(jsonl_kernel, **_EVERY_WINDOW):
        rows = kernel.tokenize(cbuf, starts, line_ends)
        try:
            scalar = JSONL_ADAPTER.tokenize_span(
                data,
                starts,
                line_ends,
                0,
                n_attrs - 1,
                n_attrs,
                JSONL_ADAPTER.default_dialect(),
                schema=JSONL_SCHEMA,
            )
        except RawDataError:
            scalar = None
        assert rows is not None or not clean
        if rows is not None:
            # What the kernel reads, the scalar parser reads the same.
            assert scalar is not None
            assert np.array_equal(rows.offsets, scalar.offsets)
            for attr, dtype in enumerate(JSONL_DTYPES):
                value_starts, value_ends = rows.field_bounds(attr)
                jumped = kernel.field_ends(cbuf, value_starts, line_ends)
                assert np.array_equal(jumped, value_ends)
                if dtype in (DataType.INTEGER, DataType.FLOAT, DataType.TEXT):
                    ours = _converted(
                        lambda: convert_span(
                            cbuf,
                            value_starts,
                            value_ends,
                            dtype,
                            JSONL_NULL,
                            json=True,
                        )
                    )
                else:
                    ours = _converted(
                        lambda: ColumnVector.from_fields(
                            rows.texts_of(attr), dtype, JSONL_NULL
                        )
                    )
                theirs = _converted(
                    lambda: ColumnVector.from_fields(
                        scalar.texts_of(attr), dtype, JSONL_NULL
                    )
                )
                assert ours == theirs

    # Through an engine: the same rows, or the same error, with the
    # kernel on every window and with the scalar parser alone.
    path = tmp_path_factory.mktemp("kern_jsonl") / "t.jsonl"
    path.write_bytes(data)
    with mock.patch.multiple(jsonl_kernel, **_EVERY_WINDOW):
        with_kernel = _jsonl_outcomes(path)
    with mock.patch.object(
        JsonLinesAdapter, "kernel_eligible", lambda self, dialect: False
    ):
        assert with_kernel == _jsonl_outcomes(path)
