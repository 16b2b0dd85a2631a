"""An engine that learns a file across appends answers like a cold one.

Each case registers a small file, queries it cold and warm, then
appends to it twice (querying after each append) and finally asks again
warm.  After every query the incrementally-learned engine must return
the rows a fresh engine over the same bytes returns, hold the same line
index (record boundaries and CRLF flag) and, after an append, read no
more of the file than that fresh engine's cold scan — strictly less
when every column it needs is cached, for then only the tail is
scanned.  Cases cross the three tokenizers (CSV kernel, quoted CSV,
JSONL), batch sizes that put every record in its own batch, cut the
appends mid-batch, or hold the whole file, and four query shapes.
"""

from __future__ import annotations

import pytest

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    append_csv_rows,
    append_jsonl_rows,
    write_csv,
    write_jsonl,
)
from repro.rawio.dialect import CsvDialect

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "integer"), ("c", "text")]
)
#: Format name -> (file suffix, CSV dialect or ``None`` for JSONL).
FORMATS = {
    "csv": ("csv", CsvDialect()),
    "csv_quoted": ("csv", CsvDialect(quote_char='"')),
    "jsonl": ("jsonl", None),
}
QUERIES = {
    "projection": "SELECT c, a FROM t",
    "predicate": "SELECT a, c FROM t WHERE b < 40",
    "count": "SELECT COUNT(*) AS n FROM t",
    "aggregate": "SELECT SUM(b) AS s, COUNT(c) AS k FROM t WHERE a >= 10",
}
#: Queries whose every column is cached for every old row once warm, so
#: after an append nothing but the tail (and its anchor) is read.  A
#: predicate query caches its projection only for the rows that passed,
#: and may read old records again for the rest.
RESIDENT = {"projection", "count"}


def _rows(lo, hi):
    return [
        (i, (i * 37) % 100, None if i % 11 == 0 else f"r{i}")
        for i in range(lo, hi)
    ]


def _open(path, fmt, batch_size):
    __, dialect = FORMATS[fmt]
    eng = PostgresRaw(PostgresRawConfig(batch_size=batch_size))
    if dialect is None:
        eng.register_jsonl("t", path, SCHEMA)
    else:
        eng.register_csv("t", path, SCHEMA, dialect)
    return eng


def _append(path, fmt, rows):
    __, dialect = FORMATS[fmt]
    if dialect is None:
        append_jsonl_rows(path, rows, SCHEMA)
    else:
        append_csv_rows(path, rows, SCHEMA, dialect)


def _line_index(eng):
    pm = eng.table_state("t").positional_map
    return pm.line_bounds.tolist(), pm.crlf


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("batch_size", [1, 7, 4096])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_appended_tail_answers_like_a_cold_scan(
    tmp_path, fmt, batch_size, query
):
    suffix, dialect = FORMATS[fmt]
    path = tmp_path / f"t.{suffix}"
    if dialect is None:
        write_jsonl(path, _rows(0, 40), SCHEMA)
    else:
        write_csv(path, _rows(0, 40), SCHEMA, dialect)
    sql = QUERIES[query]
    # (rows to append before the query, or None for a repeat)
    steps = [None, None, _rows(40, 53), _rows(53, 80), None]
    with _open(path, fmt, batch_size) as eng:
        for appended in steps:
            if appended is not None:
                _append(path, fmt, appended)
            got = eng.query(sql)
            with _open(path, fmt, batch_size) as cold:
                want = cold.query(sql)
                assert got.rows == want.rows, (appended, sql)
                assert _line_index(eng) == _line_index(cold)
                if appended is not None:
                    assert got.metrics.bytes_read <= want.metrics.bytes_read
                if appended is not None and query in RESIDENT:
                    assert got.metrics.bytes_read < want.metrics.bytes_read
        n_rows = len(_line_index(eng)[0]) - 1
        assert n_rows == 80
        if query == "projection":
            assert [r[1] for r in eng.query(sql).rows] == list(range(80))
