"""A row with the wrong number of fields answers the same whatever was
read before it.

A scan whose span stops before the last attribute still counts the
rest of each row it tokenizes, so a row with extra (or missing) fields
fails every query that reads it — never only the ones whose columns
reach the line end.  Before, an early-stopping predicate scan learned a
map chunk and a cache entry over such a row, and later warm queries
answered it (``3,z4,w`` read as ``(3, 'z4')``) where a fresh engine
raised.  Here every order of the statements, on one engine, must give
each statement a fresh engine's answer: its rows, or its error's type
and text — for the scan kernel's dialect and the quoted one, with the
bad row inside a batch and at its edge.
"""

from __future__ import annotations

import itertools

import pytest

from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.rawio.dialect import CsvDialect

SCHEMA = TableSchema.from_pairs([("a", "integer"), ("b", "text")])
STATEMENTS = [
    "SELECT a FROM t WHERE a > 0",
    "SELECT a, b FROM t",
    "SELECT b FROM t WHERE a = 3",
    "SELECT COUNT(*) FROM t WHERE a < 3",
]
BODIES = {
    # The extra field, unquoted.
    "extra": "a,b\n1,x\n2,y\n3,z4,w\n4,v\n",
    # A field missing.
    "short": "a,b\n1,x\n2,y\n3\n4,v\n",
    # Quoted fields around an extra one: the rest of the row holds a
    # quoted delimiter, so only the state machine counts it right.
    "quoted_extra": 'a,b\n1,"x,1"\n2,y\n3,"z,4",w\n4,"v"\n',
    # Well-formed, with delimiters inside quotes past the first field.
    "quoted_ok": 'a,b\n1,"x,1"\n2,"y,,2"\n3,z\n4,"v"\n',
}
DIALECTS = {"kernel": CsvDialect(), "quoted": CsvDialect(quote_char='"')}


def answer(engine, sql):
    try:
        return sorted(engine.query(sql).rows)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("batch_size", [4, 4096])
@pytest.mark.parametrize("dialect", sorted(DIALECTS))
@pytest.mark.parametrize("body", sorted(BODIES))
def test_every_order_answers_like_a_fresh_engine(
    tmp_path, body, dialect, batch_size
):
    path = tmp_path / "t.csv"
    path.write_text(BODIES[body])
    config = PostgresRawConfig(batch_size=batch_size)

    def engine():
        eng = PostgresRaw(config)
        eng.register_csv("t", path, SCHEMA, DIALECTS[dialect])
        return eng

    fresh = {}
    for sql in STATEMENTS:
        with engine() as eng:
            fresh[sql] = answer(eng, sql)
    for order in itertools.permutations(STATEMENTS):
        with engine() as eng:
            for sql in order:
                # Twice: the repeat runs over whatever the first learned.
                for __ in range(2):
                    assert answer(eng, sql) == fresh[sql], (order, sql)
    if body == "quoted_ok" and dialect == "quoted":
        assert fresh[STATEMENTS[1]] == [
            (1, "x,1"),
            (2, "y,,2"),
            (3, "z"),
            (4, "v"),
        ]
    elif body != "quoted_ok" and (dialect == "quoted" or "quoted" not in body):
        # The bad row is row 2 of the table, whichever column is read
        # (the kernel's dialect reads quotes as data: row 0 is bad too).
        assert all(
            isinstance(a, tuple) and "row 2: expected 2 fields" in a[1]
            for a in fresh.values()
        ), fresh
