"""Cross-format equivalence properties.

A JSONL file and a CSV file encoding the same rows must answer every
query identically — cold, warm and through streaming cursors.  Mirrors
the shapes of ``test_engine_props.py`` but runs each generated query
against *both* encodings of the same generated rows and compares row
lists directly.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    Column,
    CsvDialect,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    write_csv,
    write_jsonl,
)

N_COLS = 4
SCHEMA = TableSchema(
    [
        Column("c0", DataType.INTEGER),
        Column("c1", DataType.INTEGER),
        Column("c2", DataType.TEXT),
        Column("c3", DataType.FLOAT),
    ]
)

# Quoted dialect with a distinct NULL token: generated text may contain
# commas, quotes and JSON punctuation, and the empty string must stay
# distinguishable from NULL on the CSV side (JSON always distinguishes).
DIALECT = CsvDialect(
    delimiter=",", quote_char='"', null_token="NULL", has_header=False
)

# Deliberately nasty alphabet: delimiters, CSV quotes, JSON syntax
# characters, backslashes and a non-ASCII letter.
TEXT_ALPHABET = 'ab:,"{}[]\\ é0'

cell_strategies = [
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    st.one_of(
        st.none(),
        st.text(alphabet=TEXT_ALPHABET, max_size=12).filter(
            lambda s: s != DIALECT.null_token
        ),
    ),
    st.one_of(
        st.none(),
        st.integers(min_value=-400, max_value=400).map(lambda i: i / 8.0),
    ),
]

rows_strategy = st.lists(
    st.tuples(*cell_strategies), min_size=1, max_size=40
)

OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

query_strategy = st.fixed_dictionaries(
    {
        "proj": st.lists(
            st.integers(min_value=0, max_value=N_COLS - 1),
            min_size=1,
            max_size=N_COLS,
            unique=True,
        ),
        "filter_col": st.sampled_from([0, 1]),
        "op": st.sampled_from(sorted(OPS)),
        "constant": st.integers(min_value=-50, max_value=50),
    }
)


def _sql(query) -> str:
    proj = ", ".join(f"c{i}" for i in query["proj"])
    return (
        f"SELECT {proj} FROM t "
        f"WHERE c{query['filter_col']} {query['op']} {query['constant']}"
    )


def _write_pair(tmp_path, rows):
    csv_path = tmp_path / "t.csv"
    jsonl_path = tmp_path / "t.jsonl"
    write_csv(csv_path, rows, SCHEMA, DIALECT)
    write_jsonl(jsonl_path, rows, SCHEMA)
    return csv_path, jsonl_path


def _engines(tmp_path, rows, config):
    csv_path, jsonl_path = _write_pair(tmp_path, rows)
    csv_eng = PostgresRaw(config)
    csv_eng.register_csv("t", csv_path, SCHEMA, DIALECT)
    jsonl_eng = PostgresRaw(config)
    jsonl_eng.register_jsonl("t", jsonl_path, SCHEMA)
    return csv_eng, jsonl_eng


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=rows_strategy, queries=st.lists(query_strategy, max_size=4))
def test_jsonl_matches_csv_serial(tmp_path_factory, rows, queries):
    tmp_path = tmp_path_factory.mktemp("fmt-serial")
    config = PostgresRawConfig(batch_size=16)
    csv_eng, jsonl_eng = _engines(tmp_path, rows, config)
    try:
        for query in queries:
            sql = _sql(query)
            # Run twice: the second pass exercises the warm
            # positional-map / cache path on both sides.
            for _ in range(2):
                assert list(jsonl_eng.query(sql)) == list(
                    csv_eng.query(sql)
                ), sql
    finally:
        csv_eng.close()
        jsonl_eng.close()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=rows_strategy, query=query_strategy)
def test_jsonl_matches_csv_streaming(tmp_path_factory, rows, query):
    tmp_path = tmp_path_factory.mktemp("fmt-stream")
    config = PostgresRawConfig(batch_size=8)
    csv_eng, jsonl_eng = _engines(tmp_path, rows, config)
    try:
        sql = _sql(query)
        with jsonl_eng.query_stream(sql) as jcur, csv_eng.query_stream(
            sql
        ) as ccur:
            assert list(jcur.fetchall()) == list(ccur.fetchall()), sql
    finally:
        csv_eng.close()
        jsonl_eng.close()


def test_jsonl_append_matches_csv_append(tmp_path):
    """Appends to both encodings keep answers identical after refresh."""
    from repro import append_csv_rows, append_jsonl_rows

    rows = [(i, -i, f"r{i}", i / 4.0) for i in range(40)]
    extra = [(100 + i, i, None, None) for i in range(10)]
    csv_eng, jsonl_eng = _engines(tmp_path, rows, PostgresRawConfig())
    try:
        sql = "SELECT c0, c1, c2, c3 FROM t WHERE c0 >= 0"
        assert list(jsonl_eng.query(sql)) == list(csv_eng.query(sql))
        append_csv_rows(tmp_path / "t.csv", extra, SCHEMA, DIALECT)
        append_jsonl_rows(tmp_path / "t.jsonl", extra, SCHEMA)
        csv_eng.refresh()
        jsonl_eng.refresh()
        got_csv = list(csv_eng.query(sql))
        got_jsonl = list(jsonl_eng.query(sql))
        assert len(got_csv) == 50
        assert got_jsonl == got_csv
    finally:
        csv_eng.close()
        jsonl_eng.close()


# ----------------------------------------------------------------------
# Physical layouts: the same logical file as LF / CRLF / mixed line
# ends, with or without a final terminator, with or without a UTF-8
# byte-order mark.  The engine reads the file's own bytes — nothing is
# normalized — so every layout must answer like the plain LF file, and
# every learned offset must point at the bytes it names.
# ----------------------------------------------------------------------

BOM = b"\xef\xbb\xbf"

# Unquoted, kernel-eligible dialect: the nasty alphabet has no '|'.
PIPE = CsvDialect(
    delimiter="|", quote_char=None, null_token="NULL", has_header=False
)
# Unquoted with a non-ASCII delimiter: the one unquoted dialect the
# state machine serves (the kernel needs an ASCII delimiter).
SECTION = CsvDialect(
    delimiter="§", quote_char=None, null_token="NULL", has_header=False
)
assert "|" not in TEXT_ALPHABET and "§" not in TEXT_ALPHABET

#: name -> (register, dialect or None); the dialect picks the tokenizer.
PATHS = {
    "csv_kernel": ("csv", PIPE),
    "csv_scalar": ("csv", SECTION),
    "csv_quoted": ("csv", DIALECT),
    "jsonl": ("jsonl", None),
}

layout_strategy = st.fixed_dictionaries(
    {
        "newline": st.sampled_from(["lf", "crlf", "mixed"]),
        "terminated": st.booleans(),
        "bom": st.booleans(),
    }
)


def _render_lf(kind, dialect, rows) -> bytes:
    from repro.rawio.writer import render_jsonl_rows, render_rows

    if kind == "jsonl":
        return render_jsonl_rows(rows, SCHEMA).encode()
    return render_rows(rows, SCHEMA, dialect).encode()


def _terminators(layout, n_lines, first=0):
    """The line end of each of ``n_lines`` lines under ``layout``."""
    style = layout["newline"]
    return [
        b"\r\n" if style == "crlf" or (style == "mixed" and i % 2) else b"\n"
        for i in range(first, first + n_lines)
    ]


def _physical(lf: bytes, layout) -> bytes:
    lines = lf.split(b"\n")[:-1]
    ends = _terminators(layout, len(lines))
    if not layout["terminated"]:
        ends[-1] = b""
    body = b"".join(line + end for line, end in zip(lines, ends))
    return (BOM if layout["bom"] else b"") + body


def _physical_append(lf_tail: bytes, layout, n_before) -> bytes:
    """What an editor adds: close the open last line — with the line end
    the layout gives that line, so ``\\r\\n`` on CRLF files — then the
    rows."""
    lines = lf_tail.split(b"\n")[:-1]
    ends = _terminators(layout, len(lines), first=n_before)
    head = b""
    if not layout["terminated"]:
        head = _terminators(layout, 1, first=n_before - 1)[0]
    return head + b"".join(line + end for line, end in zip(lines, ends))


def _open(path, kind, dialect, config):
    eng = PostgresRaw(config)
    if kind == "jsonl":
        eng.register_jsonl("t", path, SCHEMA)
    else:
        eng.register_csv("t", path, SCHEMA, dialect)
    return eng


def _cell(kind, dialect, value, dtype) -> bytes:
    """The bytes a writer puts in the file for one value."""
    import json

    from repro.datatypes import format_scalar

    if kind == "jsonl":
        if value is None:
            return b"null"
        text = format_scalar(value, dtype, "null")
        return (json.dumps(text) if dtype is DataType.TEXT else text).encode()
    text = format_scalar(value, dtype, dialect.null_token)
    q = dialect.quote_char
    if q is not None and (dialect.delimiter in text or q in text):
        text = q + text.replace(q, q + q) + q
    return text.encode()


def _assert_map_points_at_the_bytes(eng, raw, kind, dialect, rows):
    dtypes = SCHEMA.dtypes()
    pm = eng.table_state("t").positional_map
    assert pm.chunk_count > 0
    for chunk in pm.entries():
        offsets = chunk.offsets.tolist()
        for r in range(chunk.rows):
            for col, attr in enumerate(chunk.attrs):
                cell = _cell(kind, dialect, rows[r][attr], dtypes[attr])
                off = offsets[r][col]
                assert raw[off : off + len(cell)] == cell, (r, attr)


FULL = "SELECT c0, c1, c2, c3 FROM t"


@pytest.mark.parametrize("name", sorted(PATHS))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=rows_strategy,
    tail=st.lists(st.tuples(*cell_strategies), min_size=1, max_size=6),
    layout=layout_strategy,
    query=query_strategy,
)
def test_layouts_answer_like_the_lf_file(
    tmp_path_factory, name, rows, tail, layout, query
):
    """(a) every layout == the LF, BOM-less copy; (b) the map points at
    the bytes; (d) cold -> warm -> append -> warm, identical throughout."""
    kind, dialect = PATHS[name]
    tmp = tmp_path_factory.mktemp("layout")
    lf = _render_lf(kind, dialect, rows)
    lf_tail = _render_lf(kind, dialect, tail)
    plain, laid = tmp / f"plain.{kind}", tmp / f"laid.{kind}"
    plain.write_bytes(lf)
    laid.write_bytes(_physical(lf, layout))

    config = PostgresRawConfig(batch_size=16)
    reference = _open(plain, kind, dialect, config)
    eng = _open(laid, kind, dialect, config)
    sqls = [FULL, _sql(query)]
    try:
        for step in ("cold", "warm"):
            for sql in sqls:
                assert eng.query(sql).rows == reference.query(sql).rows, (
                    step, sql
                )
        assert eng.query(FULL).rows == rows
        _assert_map_points_at_the_bytes(
            eng, laid.read_bytes(), kind, dialect, rows
        )

        with open(plain, "ab") as f:
            f.write(lf_tail)
        with open(laid, "ab") as f:
            f.write(_physical_append(lf_tail, layout, len(rows)))
        for step in ("appended", "warm again"):
            for sql in sqls:
                assert eng.query(sql).rows == reference.query(sql).rows, (
                    step, sql
                )
        assert eng.query(FULL).rows == rows + tail
        _assert_map_points_at_the_bytes(
            eng, laid.read_bytes(), kind, dialect, rows + tail
        )
    finally:
        eng.close()
        reference.close()
