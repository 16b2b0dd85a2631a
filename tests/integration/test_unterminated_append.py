"""Growth after an unterminated last record answers like a fresh engine.

A file whose last record has no ``\\n`` may grow by bytes that continue
that record: ``3,z`` followed by ``4,w\\n`` is the one record
``3,z4,w``.  Whatever the new bytes do, every answer after the growth —
rows, or the error's type and text — must be the answer a fresh engine
over the same bytes gives, on its first pass over the queries and on
its second.  (A malformed row's answers depend on what earlier queries
learned, so each pass compares with the fresh engine's same pass.)

The cases: a whole record appended after an unterminated one (the
records merge), a separator first (the record closes), and torn
appends — one append made in two writes with queries between them — in
CSV and JSON lines, at ``batch_size`` 4 and 4096.
"""

import pytest

from repro import (
    CsvDialect,
    PostgresRaw,
    PostgresRawConfig,
    ReproError,
    TableSchema,
)

SCHEMA = TableSchema.from_pairs([("a", "integer"), ("b", "text")])
QUERIES = [
    "SELECT COUNT(*) FROM t",
    "SELECT a, b FROM t",
    "SELECT b FROM t WHERE a >= 2",
]

#: name -> (initial bytes, appended writes); CSV files have a header.
CSV_CASES = {
    "merge": (b"a,b\n1,x\n2,y\n3,z", [b"4,w\n"]),
    "close": (b"a,b\n1,x\n2,y\n3,z", [b"\n4,w\n"]),
    "close_crlf": (b"a,b\r\n1,x\r\n3,z", [b"\r\n4,w\r\n"]),
    "merge_then_close": (b"a,b\n1,x\n2,y\n", [b"3,z", b"4,w", b"\n5,v\n"]),
    "torn_record": (b"a,b\n1,x\n2,y\n", [b"3,", b"z\n4,w\n"]),
    "torn_field": (b"a,b\n1,x\n2,y\n", [b"3", b",z\n"]),
}
JSONL_CASES = {
    "merge": (b'{"a":1,"b":"x"}\n{"a":2,"b":"y"}', [b'{"a":3,"b":"z"}\n']),
    "close": (
        b'{"a":1,"b":"x"}\n{"a":2,"b":"y"}',
        [b'\n{"a":3,"b":"z"}\n'],
    ),
    "torn_record": (
        b'{"a":1,"b":"x"}\n{"a":2,"b":"y"}\n',
        [b'{"a":3,', b'"b":"z"}\n{"a":4,"b":"w"}\n'],
    ),
}
CASES = [("csv", name, *case) for name, case in CSV_CASES.items()] + [
    ("jsonl", name, *case) for name, case in JSONL_CASES.items()
]


def _register(engine, fmt, path):
    if fmt == "csv":
        engine.register_csv("t", path, SCHEMA, CsvDialect())
    else:
        engine.register_jsonl("t", path, SCHEMA)


def _outcome(engine, sql):
    try:
        return ("rows", engine.query(sql).rows)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def _fresh(fmt, path, batch_size):
    """A fresh engine's outcomes, for two passes over the queries."""
    with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as engine:
        _register(engine, fmt, path)
        return [[_outcome(engine, sql) for sql in QUERIES] for __ in range(2)]


@pytest.mark.parametrize("batch_size", [4, 4096])
@pytest.mark.parametrize(
    "fmt, name, initial, writes",
    CASES,
    ids=[f"{fmt}-{name}" for fmt, name, *__ in CASES],
)
def test_answers_equal_a_fresh_engine_after_every_write(
    tmp_path, batch_size, fmt, name, initial, writes
):
    path = tmp_path / f"t.{fmt}"
    path.write_bytes(initial)
    with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as engine:
        _register(engine, fmt, path)
        first = _fresh(fmt, path, batch_size)[0]
        assert [_outcome(engine, sql) for sql in QUERIES] == first
        for i, data in enumerate(writes):
            with open(path, "ab") as f:
                f.write(data)
            for n, want in enumerate(_fresh(fmt, path, batch_size)):
                got = [_outcome(engine, sql) for sql in QUERIES]
                assert got == want, (name, i, n)
