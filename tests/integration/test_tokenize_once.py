"""A scan tokenizes each row range once.

A query with a ``WHERE`` clause tokenizes a batch's rows once, for
its predicate and projection columns together: the projection reads
its columns of the same rows from that span, and the map learns one
chunk.  An appended tail is tokenized once too: its span extends every
map chunk it continues.  So a cold JSONL predicate query — whose
records always tokenize whole — leaves the positional map with every
attribute, and a cold CSV projection whose columns precede the
predicate column tokenizes each field once, and no collector run is
dropped on the way (``collector_invalidations``).
"""

import numpy as np

from repro import (
    Column,
    DataType,
    PostgresRaw,
    TableSchema,
    append_csv_rows,
    write_csv,
    write_jsonl,
)
from repro.batch import ColumnVector
from repro.core.install import harvest
from repro.core.metrics import QueryMetrics
from repro.core.raw_scan import RawScan

SCHEMA = TableSchema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.INTEGER),
        Column("c", DataType.INTEGER),
    ]
)
N_ROWS = 5000
ROWS = [(i % 50, i % 70, i) for i in range(N_ROWS)]


def test_jsonl_predicate_query_teaches_the_whole_map(tmp_path):
    path = write_jsonl(tmp_path / "t.jsonl", ROWS, SCHEMA)
    with PostgresRaw() as eng:
        eng.register_jsonl("t", path, SCHEMA)
        first = eng.query("SELECT b, c FROM t WHERE a = 17")
        assert sorted(first.rows) == sorted(
            (b, c) for a, b, c in ROWS if a == 17
        )
        assert first.metrics.fields_tokenized == N_ROWS * 3
        assert first.metrics.collector_invalidations == 0
        pm = eng.table_state("t").positional_map
        assert [(c["attrs"], c["rows"]) for c in pm.describe()] == [
            ((0, 1, 2), N_ROWS)
        ]

        second = eng.query("SELECT c FROM t WHERE b = 34")
        assert sorted(second.rows) == sorted(
            (c,) for a, b, c in ROWS if b == 34
        )
        assert second.metrics.fields_tokenized == 0
        assert second.metrics.collector_invalidations == 0


def test_csv_projection_before_the_predicate_tokenizes_once(tmp_path):
    path = write_csv(tmp_path / "t.csv", ROWS, SCHEMA)
    with PostgresRaw() as eng:
        eng.register_csv("t", path, SCHEMA)
        result = eng.query("SELECT a, b FROM t WHERE c < 2500")
        assert sorted(result.rows) == sorted(
            (a, b) for a, b, c in ROWS if c < 2500
        )
        # Attributes 0..2 once per row: the predicate's span serves
        # the projection too.
        assert result.metrics.fields_tokenized == N_ROWS * 3
        assert result.metrics.collector_invalidations == 0


def test_an_appended_tail_extends_every_chunk_it_continues(tmp_path):
    path = write_csv(tmp_path / "t.csv", ROWS[:3000], SCHEMA)
    with PostgresRaw() as eng:
        eng.register_csv("t", path, SCHEMA)
        # A stride tokenizes each window once: ``a`` alone, then ``b``
        # and ``c`` anchored on the first chunk's ``b``.  Two chunks,
        # ``a`` and ``b`` cached, ``c`` only converted for survivors.
        pm = eng.table_state("t").positional_map

        def chunks():
            return sorted((c["attrs"], c["rows"]) for c in pm.describe())

        eng.query("SELECT a FROM t WHERE a % 2 = 0")
        assert chunks() == [((0, 1), 3000)]
        eng.query("SELECT c FROM t WHERE b % 2 = 0")
        assert chunks() == [((0, 1), 3000), ((1, 2), 3000)]
        append_csv_rows(path, ROWS[3000:3050], SCHEMA)
        tokenized = []
        for _ in range(5):
            result = eng.query("SELECT a, c FROM t WHERE b = 3")
            assert sorted(result.rows) == sorted(
                (a, c) for a, b, c in ROWS[:3050] if b == 3
            )
            tokenized.append(result.metrics.fields_tokenized)
        # The tail's span over all three attributes extends both
        # chunks: later repeats jump it.
        assert tokenized[0] >= 50 * 3 and tokenized[1:] == [0, 0, 0, 0]
        assert chunks() == [((0, 1), 3050), ((1, 2), 3050)]


def test_harvest_counts_the_runs_it_drops(tmp_path):
    path = write_csv(tmp_path / "t.csv", ROWS[:20], SCHEMA)
    with PostgresRaw() as eng:
        eng.register_csv("t", path, SCHEMA)
        scan = RawScan(eng.table_state("t"), QueryMetrics(), ["a"])
        block = ColumnVector(
            DataType.INTEGER,
            np.arange(5, dtype=np.int64),
            np.zeros(5, dtype=np.bool_),
        )
        scan.collectors.add_column(0, 0, block, 0.0)
        scan.collectors.add_column(0, 10, block, 0.0)  # rows 5..9 missing
        scan.collectors.add_column(1, 0, block, 0.0)
        plan = harvest(scan, 20)
    assert scan.metrics.collector_invalidations == 1
    assert [attr for attr, *__ in plan.columns] == [1]
