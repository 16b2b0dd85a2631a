"""The scan's traced counters, pinned over one fixed query sequence.

The sequence: a cold scan, its repeat, new columns, ``COUNT(*)``, an
external append, the repeat over the appended tail and a point lookup
on the cached key that skips windows.  Every counter the benchmark
reports per scan, and ``bytes_read``, must stay exactly these values.
"""

from repro import (
    Column,
    DataType,
    PostgresRaw,
    TableSchema,
    append_csv_rows,
    write_csv,
)

SCHEMA = TableSchema(
    [
        Column("id", DataType.INTEGER),
        Column("a", DataType.INTEGER),
        Column("b", DataType.FLOAT),
        Column("c", DataType.TEXT),
        Column("d", DataType.INTEGER),
    ]
)
COUNTERS = (
    "rows_scanned",
    "fields_tokenized",
    "fields_converted",
    "cache_hits",
    "cache_misses",
    "pm_chunk_hits",
    "pm_chunk_misses",
    "windows_skipped",
)
SELECT = "SELECT id, c FROM t WHERE id < 3000"
#: ``(step, statement, counters)``; ``None`` appends rows 6000-19999.
STEPS = [
    ("cold", SELECT, (6000, 24000, 9000, 0, 2, 0, 2, 0)),
    ("repeat", SELECT, (6000, 0, 3000, 1, 1, 1, 0, 1)),
    (
        "new_columns",
        "SELECT a, b FROM t WHERE id < 3000",
        (6000, 0, 6000, 1, 2, 2, 0, 1),
    ),
    ("count", "SELECT COUNT(*) FROM t", (6000, 0, 0, 0, 0, 0, 0, 0)),
    ("append", None, None),
    ("repeat_after_append", SELECT, (20000, 56000, 17000, 1, 3, 1, 2, 0)),
    (
        "point",
        "SELECT id, c FROM t WHERE id = 1234",
        (20000, 0, 1, 1, 1, 1, 0, 4),
    ),
]
#: ``bytes_read`` per statement.
BYTES_READ = [131626, 64811, 64811, 0, 398560, 21]


def _rows(lo, hi):
    return [
        (i, (i * 7919) % 1000, i / 8, f"w{(i * 31) % 97}", i % 13)
        for i in range(lo, hi)
    ]


def test_scan_counters_are_pinned(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, _rows(0, 6000), SCHEMA)
    got, want = {}, {}
    with PostgresRaw() as engine:
        engine.register_csv("t", path, SCHEMA)
        for step, sql, counters in STEPS:
            if sql is None:
                append_csv_rows(path, _rows(6000, 20000), SCHEMA)
                continue
            metrics = engine.query(sql).metrics
            got[step] = (
                tuple(getattr(metrics, name) for name in COUNTERS),
                metrics.bytes_read,
            )
            want[step] = counters
    steps = [step for step, sql, __ in STEPS if sql is not None]
    assert got == {
        step: (want[step], n_bytes) for step, n_bytes in zip(steps, BYTES_READ)
    }
