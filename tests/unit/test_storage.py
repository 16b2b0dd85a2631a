"""Unit tests for heap / column-store tables and the bulk loader."""

import numpy as np
import pytest

from repro.batch import ColumnVector
from repro.catalog.schema import Column, TableSchema
from repro.core.metrics import QueryMetrics
from repro.datatypes import DataType
from repro.errors import RawDataError, StorageError
from repro.rawio.dialect import DEFAULT_DIALECT, CsvDialect
from repro.rawio.generator import (
    ColumnSpec,
    DatasetSpec,
    generate_csv,
)
from repro.storage.columnstore import ZONE_BLOCK_ROWS, ColumnStoreTable
from repro.storage.heap import RowHeapTable
from repro.storage.loader import load_csv_to_columns

SCHEMA = TableSchema(
    [
        Column("i", DataType.INTEGER),
        Column("f", DataType.FLOAT),
        Column("s", DataType.TEXT),
        Column("b", DataType.BOOLEAN),
        Column("d", DataType.DATE),
    ]
)


def _columns(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "i": ColumnVector.from_pylist(
            DataType.INTEGER,
            [int(v) if v % 7 else None for v in rng.integers(0, 1000, n)],
        ),
        "f": ColumnVector.from_pylist(
            DataType.FLOAT, [float(v) for v in rng.uniform(0, 1, n)]
        ),
        "s": ColumnVector.from_pylist(
            DataType.TEXT,
            [
                None if v < 0.1 else f"str{int(v * 100)}"
                for v in rng.uniform(0, 1, n)
            ],
        ),
        "b": ColumnVector.from_pylist(
            DataType.BOOLEAN, [bool(v > 0.5) for v in rng.uniform(0, 1, n)]
        ),
        "d": ColumnVector.from_pylist(
            DataType.DATE, [int(v) for v in rng.integers(0, 20000, n)]
        ),
    }


def _scan_all(table, columns, batch_size=32):
    parts = [
        {name: batch.column(name).to_pylist() for name in columns}
        for batch in table.scan(columns, batch_size)
    ]
    return {
        name: [v for part in parts for v in part[name]] for name in columns
    }


@pytest.mark.parametrize("kind", ["heap", "column"])
class TestStoredTables:
    def _create(self, tmp_path, kind, columns):
        if kind == "heap":
            return RowHeapTable.create(tmp_path / "t.heap", SCHEMA, columns)
        return ColumnStoreTable.create(tmp_path / "t.cols", SCHEMA, columns)

    def test_roundtrip_all_types(self, tmp_path, kind):
        columns = _columns(100)
        table = self._create(tmp_path, kind, columns)
        assert table.num_rows == 100
        data = _scan_all(table, SCHEMA.names())
        for name in SCHEMA.names():
            assert data[name] == columns[name].to_pylist()

    def test_projection_scan(self, tmp_path, kind):
        columns = _columns(50)
        table = self._create(tmp_path, kind, columns)
        data = _scan_all(table, ["f", "i"])
        assert set(data) == {"f", "i"}

    def test_gather(self, tmp_path, kind):
        columns = _columns(50)
        table = self._create(tmp_path, kind, columns)
        ids = np.array([3, 17, 42], dtype=np.int64)
        batch = table.gather(["i", "s"], ids)
        expected = columns["i"].to_pylist()
        assert batch.column("i").to_pylist() == [
            expected[3],
            expected[17],
            expected[42],
        ]

    def test_io_metered(self, tmp_path, kind):
        columns = _columns(50)
        table = self._create(tmp_path, kind, columns)
        metrics = QueryMetrics()
        list(table.scan(["i"], 16, metrics))
        assert metrics.bytes_read > 0

    def test_missing_column_at_create(self, tmp_path, kind):
        columns = _columns(10)
        del columns["f"]
        with pytest.raises(StorageError):
            self._create(tmp_path, kind, columns)

    def test_ragged_columns_at_create(self, tmp_path, kind):
        columns = _columns(10)
        columns["f"] = ColumnVector.from_pylist(DataType.FLOAT, [1.0])
        with pytest.raises(StorageError):
            self._create(tmp_path, kind, columns)

    def test_storage_bytes_positive(self, tmp_path, kind):
        table = self._create(tmp_path, kind, _columns(10))
        assert table.storage_bytes() > 0


class TestZoneMaps:
    def test_zone_map_built_for_numeric(self, tmp_path):
        columns = _columns(ZONE_BLOCK_ROWS * 2 + 10)
        table = ColumnStoreTable.create(tmp_path / "t", SCHEMA, columns)
        zones = table.zone_map("i")
        assert zones is not None and zones.window_rows == ZONE_BLOCK_ROWS
        assert len(zones.mins) == 3
        assert (zones.mins <= zones.maxs).all()
        assert zones.mins.dtype == np.int64
        assert table.zone_map("d").mins.dtype == np.int64
        assert table.zone_map("f").mins.dtype == np.float64
        assert table.zone_map("s") is None
        assert table.zone_map("b") is None

    def test_zone_map_disabled(self, tmp_path):
        table = ColumnStoreTable.create(
            tmp_path / "t", SCHEMA, _columns(10), zone_rows=None
        )
        assert table.zone_map("i") is None
        assert table.zone_bytes() == 0

    def test_block_filter_skips_blocks(self, tmp_path):
        n = ZONE_BLOCK_ROWS * 3
        columns = {
            "v": ColumnVector.from_pylist(
                DataType.INTEGER, list(range(n))
            )
        }
        schema = TableSchema([Column("v", DataType.INTEGER)])
        table = ColumnStoreTable.create(tmp_path / "t", schema, columns)
        # Only the middle block contains values in the window.
        keep = np.array([False, True, False])
        rows = 0
        for batch in table.scan(["v"], ZONE_BLOCK_ROWS, None, keep):
            rows += batch.num_rows
        assert rows == ZONE_BLOCK_ROWS

    def test_zone_mins_maxs_correct(self, tmp_path):
        n = ZONE_BLOCK_ROWS * 2
        values = list(range(n))
        columns = {
            "v": ColumnVector.from_pylist(DataType.INTEGER, values)
        }
        schema = TableSchema([Column("v", DataType.INTEGER)])
        table = ColumnStoreTable.create(tmp_path / "t", schema, columns)
        zones = table.zone_map("v")
        assert zones.mins.tolist() == [0, ZONE_BLOCK_ROWS]
        assert zones.maxs.tolist() == [ZONE_BLOCK_ROWS - 1, n - 1]
        assert zones.nulls.tolist() == [0, 0]

    def test_extend_updates_only_the_tail_block(self, tmp_path):
        schema = TableSchema([Column("v", DataType.INTEGER)])
        head = ColumnVector.from_pylist(
            DataType.INTEGER, list(range(ZONE_BLOCK_ROWS + 5))
        )
        table = ColumnStoreTable.create(tmp_path / "t", schema, {"v": head})
        before = table.zone_map("v")
        tail = ColumnVector.from_pylist(
            DataType.INTEGER, [-7, None] + [10**6] * ZONE_BLOCK_ROWS
        )
        asked = []
        assert table.extend({"v": tail}, lambda n: asked.append(n) or True)
        zones = table.zone_map("v")
        assert zones.rows == table.num_rows == len(head) + len(tail)
        assert zones.mins.tolist() == [0, -7, 10**6]
        assert zones.maxs.tolist() == [ZONE_BLOCK_ROWS - 1, 10**6, 10**6]
        assert zones.nulls.tolist() == [0, 1, 0]
        # The head block is untouched; the zone map's growth is charged.
        assert zones.mins[0] == before.mins[0]
        assert asked[0] - table.zone_bytes() + before.nbytes == (
            len(tail) * 8 + (128 + table.num_rows)
        )


class TestLoader:
    def test_load_matches_generator(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec("a", DataType.INTEGER),
                ColumnSpec("t", DataType.TEXT, width=5),
                ColumnSpec("n", DataType.INTEGER, null_fraction=0.2),
            ),
            n_rows=500,
            seed=6,
        )
        schema = generate_csv(path, spec)
        columns, report = load_csv_to_columns(path, schema)
        assert report.rows == 500
        assert report.total_seconds > 0
        assert report.bytes_read == path.stat().st_size
        assert len(columns["a"]) == 500
        nulls = columns["n"].null_mask.sum()
        assert 50 < nulls < 150

    def test_quoted_dialect_loads_the_same_columns(self, tmp_path):
        """The loader tokenizes as the engine does for the dialect: the
        scan kernel unquoted, the state machine quoted — same columns
        from the same quote-free file, and the same malformed-row error."""
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec("a", DataType.INTEGER),
                ColumnSpec("t", DataType.TEXT, width=5),
                ColumnSpec("n", DataType.INTEGER, null_fraction=0.2),
            ),
            n_rows=300,
            seed=6,
        )
        schema = generate_csv(path, spec)
        quoted = CsvDialect(quote_char='"')
        kernel, __ = load_csv_to_columns(path, schema)
        scalar, __ = load_csv_to_columns(path, schema, quoted)
        for name, column in kernel.items():
            assert np.array_equal(column.values, scalar[name].values)
            assert np.array_equal(column.null_mask, scalar[name].null_mask)
        with open(path, "a") as f:
            f.write("1,x\n")
        errors = []
        for dialect in (DEFAULT_DIALECT, quoted):
            with pytest.raises(RawDataError) as info:
                load_csv_to_columns(path, schema, dialect)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_report_phases_populated(self, tmp_path):
        path = tmp_path / "t.csv"
        schema = generate_csv(
            path,
            DatasetSpec(
                columns=(ColumnSpec("a", DataType.INTEGER),), n_rows=100
            ),
        )
        __, report = load_csv_to_columns(path, schema)
        assert report.io_seconds > 0
        assert report.tokenize_seconds > 0
        assert report.convert_seconds > 0
