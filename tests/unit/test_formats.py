"""Format adapters: sniffing edges, the JSONL record parser, and the
byte-offset contract — CRLF trimmed per record, BOM skipped, an
unterminated final record closed, text decoded lazily and strictly."""

import numpy as np
import pytest

from repro import (
    Column,
    DataType,
    PostgresRaw,
    RawDataError,
    TableSchema,
    sniff_format,
    write_jsonl,
)
from repro.formats import (
    JSONL_DIALECT,
    JSONL_NULL,
    adapter_for,
)
from repro.formats.jsonl import parse_record, token_text, value_end
from repro.rawio.sniffer import infer_schema_jsonl


SCHEMA = TableSchema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.TEXT),
    ]
)


# ----------------------------------------------------------------------
# Format sniffing, including the ambiguous edges from the issue.
# ----------------------------------------------------------------------


def test_sniff_jsonl(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"a": 1, "b": "x"}\n{"a": 2, "b": null}\n')
    assert sniff_format(path) == "jsonl"


def test_sniff_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,x\n")
    assert sniff_format(path) == "csv"


def test_sniff_single_column_csv(tmp_path):
    # A single-column CSV has no delimiter at all — still CSV.
    path = tmp_path / "one.csv"
    path.write_text("a\n1\n2\n3\n")
    assert sniff_format(path) == "csv"


def test_sniff_json_looking_quoted_csv_field(tmp_path):
    # A quoted CSV field containing JSON text must not flip the sniff:
    # the line starts with the quote character, not a bare '{'.
    path = tmp_path / "q.csv"
    path.write_text('payload,n\n"{""a"": 1}",2\n')
    assert sniff_format(path) == "csv"


def test_sniff_empty_file_defaults_to_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert sniff_format(path) == "csv"


def test_sniff_headerless_brace_line_that_is_not_json(tmp_path):
    # Starts with '{' but does not parse as a JSON object: CSV.
    path = tmp_path / "weird.csv"
    path.write_text("{not json}\n")
    assert sniff_format(path) == "csv"


def test_adapter_for_unknown_format_raises():
    with pytest.raises(ValueError):
        adapter_for("parquet")


# ----------------------------------------------------------------------
# JSONL schema inference.
# ----------------------------------------------------------------------


def test_infer_schema_jsonl_types(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"i": 1, "f": 1.5, "b": true, "s": "x", "d": "2021-03-04", '
        '"n": null}\n'
        '{"i": 2, "f": 2, "b": false, "s": "y", "d": "2022-05-06", '
        '"n": null}\n'
    )
    schema = infer_schema_jsonl(path)
    got = {c.name: c.dtype for c in schema.columns}
    assert got == {
        "i": DataType.INTEGER,
        "f": DataType.FLOAT,
        "b": DataType.BOOLEAN,
        "s": DataType.TEXT,
        "d": DataType.DATE,
        "n": DataType.TEXT,  # null-only: widest type
    }
    # First-seen key order is preserved.
    assert schema.names() == ["i", "f", "b", "s", "d", "n"]


def test_infer_schema_jsonl_rejects_nested(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"a": {"nested": 1}}\n')
    with pytest.raises(RawDataError):
        infer_schema_jsonl(path)


def test_infer_schema_jsonl_empty_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("")
    with pytest.raises(RawDataError):
        infer_schema_jsonl(path)


# ----------------------------------------------------------------------
# The JSONL record scanner.
# ----------------------------------------------------------------------


def _scan(data, pos=0, base=0):
    """(text, end) of the JSON value at ``pos`` of ``data``."""
    end = value_end(data, pos, len(data), base)
    return token_text(data[pos:end], pos + base), end


def test_value_forms():
    assert _scan(b'"x"') == ("x", 3)
    assert _scan(b"null,") == (JSONL_NULL, 4)
    assert _scan(b"true}") == ("true", 4)
    assert _scan(b"false}") == ("false", 5)
    assert _scan(b"-1.5e3,") == ("-1.5e3", 6)
    with pytest.raises(RawDataError, match="offset 100"):
        value_end(b'{"a": 1}', 0, 8, base=100)  # nested object


def test_string_escapes():
    content = b'"he said \\"hi\\", bye"'
    assert _scan(content) == ('he said "hi", bye', len(content))


def test_parse_record_key_order_and_unknown_keys():
    content = b'{"b": "x", "extra": 9, "a": 7}'
    starts, tokens = parse_record(
        content, 0, len(content), {b"a": 0, b"b": 1}
    )
    # Raw value tokens; text is made only for the attributes read.
    assert tokens == [b"7", b'"x"']
    assert [token_text(t, 0) for t in tokens] == ["7", "x"]
    # Offsets point at each *value* start, wherever the key appears.
    assert content[starts[0] :].startswith(b"7")
    assert content[starts[1] : starts[1] + 3] == b'"x"'


def test_parse_record_duplicate_key_last_wins():
    content = b'{"a": 1, "b": "x", "a": 2}'
    _, tokens = parse_record(content, 0, len(content), {b"a": 0, b"b": 1})
    assert tokens == [b"2", b'"x"']


def test_parse_record_missing_key_raises():
    content = b'{"a": 1}'
    with pytest.raises(RawDataError, match="missing key 'b'"):
        parse_record(content, 0, len(content), {b"a": 0, b"b": 1}, row=3)


def test_parse_record_trailing_garbage_raises():
    content = b'{"a": 1} trailing'
    with pytest.raises(RawDataError, match="trailing"):
        parse_record(content, 0, len(content), {b"a": 0})


def test_jsonl_text_is_decoded_lazily():
    adapter = adapter_for("jsonl")
    content = b'{"a": 1, "b": "\xff"}\n'
    tokenized = adapter.tokenize_span(
        content,
        np.array([0], dtype=np.int64),
        np.array([len(content) - 1], dtype=np.int64),
        0, 1, 2, JSONL_DIALECT, schema=SCHEMA,
    )
    assert tokenized.texts_of(0) == ["1"]
    with pytest.raises(RawDataError, match="not valid UTF-8") as info:
        tokenized.texts_of(1)
    assert info.value.offset == content.index(b'"\xff"')


def test_jsonl_tokenize_span_full_width_only():
    adapter = adapter_for("jsonl")
    content = b'{"a": 1, "b": "x"}\n'
    starts = np.array([0], dtype=np.int64)
    ends = np.array([18], dtype=np.int64)
    with pytest.raises(RawDataError, match="full-width"):
        adapter.tokenize_span(
            content, starts, ends, 0, 0, 2, JSONL_DIALECT, schema=SCHEMA
        )
    tokenized = adapter.tokenize_span(
        content, starts, ends, 0, 1, 2, JSONL_DIALECT, schema=SCHEMA
    )
    assert tokenized.texts_of(0) == ["1"]
    assert tokenized.texts_of(1) == ["x"]


def test_jsonl_extract_field_jumps_to_value():
    adapter = adapter_for("jsonl")
    content = b'{"a": 42, "b": "hi"}\n'
    # The map records the value start of "b": extract re-scans it.
    start = content.index(b'"hi"')
    assert (
        adapter.extract_field(content, start, len(content) - 1, JSONL_DIALECT)
        == "hi"
    )


# ----------------------------------------------------------------------
# Byte-offset contract: CRLF, BOM, unterminated final records and
# undecodable bytes are handled on the file's own bytes, for every
# format (see repro.formats.base).
# ----------------------------------------------------------------------


def _register(eng, fmt, path):
    if fmt == "csv":
        from repro.rawio.dialect import CsvDialect

        eng.register_csv("t", path, SCHEMA, CsvDialect(has_header=False))
    else:
        eng.register_jsonl("t", path, SCHEMA)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_crlf_trimmed_at_record_end(tmp_path, fmt):
    if fmt == "csv":
        raw = b"1,x\r\n2,y\r\n"
        path = tmp_path / "t.csv"
    else:
        raw = b'{"a": 1, "b": "x"}\r\n{"a": 2, "b": "y"}\r\n'
        path = tmp_path / "t.jsonl"
    path.write_bytes(raw)

    eng = PostgresRaw()
    _register(eng, fmt, path)
    assert list(eng.query("SELECT a, b FROM t")) == [(1, "x"), (2, "y")]
    # Warm (positional-map) scan answers identically over CRLF input.
    assert list(eng.query("SELECT a, b FROM t")) == [(1, "x"), (2, "y")]
    # Nothing was rewritten: the line index names the file's own bytes.
    pm = eng.table_state("t").positional_map
    assert pm.crlf
    assert pm.line_bounds.tolist() == [0, raw.index(b"\n") + 1, len(raw)]
    eng.close()


@pytest.mark.parametrize(
    "fmt,header", [("csv", False), ("csv", True), ("jsonl", False)]
)
def test_utf8_bom_is_skipped(tmp_path, fmt, header):
    """Regression: a leading EF BB BF used to become part of the first
    field (``cannot convert '\\ufeff1'`` / ``expected a JSON object``)."""
    from repro.rawio.dialect import CsvDialect

    bom = b"\xef\xbb\xbf"
    if fmt == "csv":
        path = tmp_path / "t.csv"
        path.write_bytes(bom + (b"a,b\n" if header else b"") + b"1,x\n2,y\n")
    else:
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            bom + b'{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n'
        )
    assert sniff_format(path) == fmt
    eng = PostgresRaw()
    if fmt == "csv":
        eng.register_csv("t", path, SCHEMA, CsvDialect(has_header=header))
    else:
        eng.register_jsonl("t", path, SCHEMA)
    for _ in range(2):  # cold, then through the map
        assert list(eng.query("SELECT a, b FROM t")) == [(1, "x"), (2, "y")]
    first = int(eng.table_state("t").positional_map.line_bounds[0])
    assert first == 3 + (4 if header else 0)
    eng.close()


def test_bom_schema_inference(tmp_path):
    from repro.rawio.sniffer import infer_schema

    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,x\n")
    assert infer_schema(path).names() == ["a", "b"]
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"a": 1, "b": "x"}\n')
    assert infer_schema_jsonl(path).names() == ["a", "b"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_unterminated_final_record(tmp_path, fmt):
    if fmt == "csv":
        path = tmp_path / "t.csv"
        path.write_text("1,x\n2,y")  # no trailing newline
    else:
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}')
    eng = PostgresRaw()
    _register(eng, fmt, path)
    assert list(eng.query("SELECT a, b FROM t")) == [(1, "x"), (2, "y")]
    assert list(eng.query("SELECT a, b FROM t")) == [(1, "x"), (2, "y")]
    eng.close()


def test_write_jsonl_round_trip(tmp_path):
    schema = TableSchema(
        [
            Column("i", DataType.INTEGER),
            Column("f", DataType.FLOAT),
            Column("b", DataType.BOOLEAN),
            Column("s", DataType.TEXT),
        ]
    )
    rows = [
        (1, 1.5, True, "plain"),
        (None, None, None, None),
        (-7, 0.25, False, 'quotes " and, commas'),
    ]
    path = tmp_path / "t.jsonl"
    write_jsonl(path, rows, schema)
    assert sniff_format(path) == "jsonl"
    eng = PostgresRaw()
    eng.register_jsonl("t", path, schema)
    assert list(eng.query("SELECT i, f, b, s FROM t")) == rows
    eng.close()
