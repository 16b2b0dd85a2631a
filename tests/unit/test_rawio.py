"""Unit tests for dialects, generation, writing, reading, sniffing."""

import numpy as np
import pytest

from repro.catalog.schema import Column, TableSchema
from repro.core.metrics import QueryMetrics
from repro.datatypes import DataType, days_to_date
from repro.errors import RawDataError, SchemaError, UpdateConflictError
from repro.rawio.dialect import CsvDialect
from repro.rawio.generator import (
    ColumnSpec,
    DatasetSpec,
    generate_csv,
    uniform_table_spec,
)
from repro.rawio.reader import RawFileReader
from repro.rawio.sniffer import infer_column_type, infer_schema
from repro.rawio.writer import append_csv_rows, render_rows, write_csv


class TestDialect:
    def test_defaults(self):
        dialect = CsvDialect()
        assert dialect.delimiter == ","
        assert not dialect.quoting
        assert dialect.has_header

    def test_invalid_delimiters(self):
        with pytest.raises(SchemaError):
            CsvDialect(delimiter=",,")
        with pytest.raises(SchemaError):
            CsvDialect(delimiter="\n")

    def test_invalid_quote(self):
        with pytest.raises(SchemaError):
            CsvDialect(quote_char=",,")
        with pytest.raises(SchemaError):
            CsvDialect(delimiter=";", quote_char=";")


class TestGenerator:
    def test_deterministic(self, tmp_path):
        spec = uniform_table_spec(n_attrs=3, n_rows=100, seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_csv(p1, spec)
        generate_csv(p2, spec)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_and_column_counts(self, tmp_path):
        path = tmp_path / "t.csv"
        schema = generate_csv(path, uniform_table_spec(4, 57, seed=1))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 58  # header + rows
        assert all(line.count(",") == 3 for line in lines)
        assert len(schema) == 4

    def test_header_matches_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        schema = generate_csv(path, uniform_table_spec(3, 5))
        header = path.read_text().split("\n", 1)[0]
        assert header.split(",") == schema.names()

    def test_integer_width_padding(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(ColumnSpec("a", DataType.INTEGER, width=10),),
            n_rows=20,
        )
        generate_csv(path, spec)
        for line in path.read_text().strip().split("\n")[1:]:
            assert len(line) == 10

    def test_text_width_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(ColumnSpec("s", DataType.TEXT, width=7),), n_rows=10
        )
        generate_csv(path, spec)
        for line in path.read_text().strip().split("\n")[1:]:
            assert len(line) == 7 and line.isalpha()

    def test_null_fraction(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec("a", DataType.INTEGER, null_fraction=0.5),
            ),
            n_rows=2000,
            seed=3,
        )
        generate_csv(path, spec)
        lines = path.read_text().strip().split("\n")[1:]
        empties = sum(1 for line in lines if line == "")
        assert 800 < empties < 1200

    def test_sequential_distribution_continues_across_chunks(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec(
                    "id", DataType.INTEGER, distribution="sequential", low=10
                ),
            ),
            n_rows=70000,  # crosses the 65536 chunk boundary
        )
        generate_csv(path, spec)
        lines = path.read_text().strip().split("\n")[1:]
        assert lines[0] == "10"
        assert lines[-1] == str(10 + 70000 - 1)

    def test_zipf_is_skewed(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec(
                    "z",
                    DataType.INTEGER,
                    distribution="zipf",
                    low=0,
                    high=1000,
                ),
            ),
            n_rows=5000,
            seed=4,
        )
        generate_csv(path, spec)
        values = [
            int(v) for v in path.read_text().strip().split("\n")[1:]
        ]
        counts = np.bincount(values, minlength=1000)
        assert counts[0] > 5 * max(counts[500:].max(), 1)

    def test_date_and_bool_and_cardinality_text(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec("d", DataType.DATE, low=0, high=100),
                ColumnSpec("b", DataType.BOOLEAN),
                ColumnSpec("s", DataType.TEXT, width=4, cardinality=3),
            ),
            n_rows=200,
            seed=9,
        )
        generate_csv(path, spec)
        lines = [
            line.split(",")
            for line in path.read_text().strip().split("\n")[1:]
        ]
        dates = {row[0] for row in lines}
        assert all(d.count("-") == 2 for d in dates)
        assert {row[1] for row in lines} <= {"true", "false"}
        assert len({row[2] for row in lines}) <= 3

    def test_invalid_specs(self):
        with pytest.raises(SchemaError):
            ColumnSpec("a", DataType.INTEGER, distribution="normal")
        with pytest.raises(SchemaError):
            ColumnSpec("a", DataType.INTEGER, null_fraction=1.5)
        with pytest.raises(SchemaError):
            ColumnSpec("a", DataType.INTEGER, low=5, high=5)
        with pytest.raises(SchemaError):
            DatasetSpec(columns=(), n_rows=10)
        with pytest.raises(SchemaError):
            uniform_table_spec(2, -1)


class TestWriter:
    def test_write_and_append(self, tmp_path):
        schema = TableSchema(
            [Column("a", DataType.INTEGER), Column("b", DataType.TEXT)]
        )
        path = tmp_path / "w.csv"
        write_csv(path, [(1, "x"), (2, "y")], schema)
        assert path.read_text() == "a,b\n1,x\n2,y\n"
        appended = append_csv_rows(path, [(3, "z")], schema)
        assert appended == len("3,z\n")
        assert path.read_text().endswith("3,z\n")

    def test_nulls_rendered_as_token(self, tmp_path):
        schema = TableSchema([Column("a", DataType.INTEGER)])
        text = render_rows([(None,), (7,)], schema)
        assert text == "\n7\n"

    def test_unquotable_delimiter_raises(self):
        schema = TableSchema([Column("s", DataType.TEXT)])
        with pytest.raises(RawDataError):
            render_rows([("has,comma",)], schema)

    def test_quoted_rendering(self):
        schema = TableSchema([Column("s", DataType.TEXT)])
        dialect = CsvDialect(quote_char='"')
        text = render_rows([('say "hi", ok',)], schema, dialect)
        assert text == '"say ""hi"", ok"\n'

    def test_row_width_mismatch(self):
        schema = TableSchema([Column("a", DataType.INTEGER)])
        with pytest.raises(RawDataError):
            render_rows([(1, 2)], schema)

    def test_empty_rows(self):
        schema = TableSchema([Column("a", DataType.INTEGER)])
        assert render_rows([], schema) == ""


class TestReader:
    def test_range_reads_are_metered(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"0123456789" * 100)
        metrics = QueryMetrics()
        with RawFileReader(path, metrics) as reader:
            assert reader.size == 1000
            assert reader.read_range(8, 12) == b"8901"
            assert reader.read_range(990, 1000) == b"0123456789"
            assert reader.read_range(5, 5) == b""
        # Only the bytes asked for were read.
        assert metrics.bytes_read == 14
        assert metrics.io_seconds > 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(RawDataError):
            RawFileReader(tmp_path / "nope.csv")

    def test_shrunk_file_is_a_typed_conflict(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"0123456789")
        with RawFileReader(path) as reader:
            path.write_bytes(b"0123")  # truncated in place, same inode
            with pytest.raises(UpdateConflictError):
                reader.read_range(2, 8)  # short read
            with pytest.raises(UpdateConflictError):
                reader.read_range(0, 2)  # readable, but another version

    def test_expected_version_is_checked_at_open(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"0123456789")
        with RawFileReader(path) as reader:
            stamp = reader.stamp
        with RawFileReader(path, stamp=stamp) as reader:
            assert reader.read_range(0, 4) == b"0123"
        path.write_bytes(b"something else entirely")
        with pytest.raises(UpdateConflictError):
            RawFileReader(path, stamp=stamp)


class TestSniffer:
    def test_infer_column_type_ladder(self):
        assert infer_column_type(["1", "2"]) is DataType.INTEGER
        assert infer_column_type(["1.5", "2"]) is DataType.FLOAT
        assert infer_column_type(["2012-01-01"]) is DataType.DATE
        assert infer_column_type(["true", "no"]) is DataType.BOOLEAN
        assert infer_column_type(["abc"]) is DataType.TEXT
        assert infer_column_type([]) is DataType.TEXT

    def test_infer_schema_from_generated(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(
                ColumnSpec("n", DataType.INTEGER),
                ColumnSpec("f", DataType.FLOAT),
                ColumnSpec("d", DataType.DATE, low=0, high=10),
                ColumnSpec("s", DataType.TEXT, width=5),
            ),
            n_rows=50,
        )
        generate_csv(path, spec)
        schema = infer_schema(path)
        assert schema.names() == ["n", "f", "d", "s"]
        assert schema.dtypes() == [
            DataType.INTEGER,
            DataType.FLOAT,
            DataType.DATE,
            DataType.TEXT,
        ]

    def test_infer_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,x\n2,y\n")
        schema = infer_schema(path, CsvDialect(has_header=False))
        assert schema.names() == ["a0", "a1"]

    def test_ragged_rows_raise(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(RawDataError):
            infer_schema(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(RawDataError):
            infer_schema(path)

    def test_quoted_dialect_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n")
        with pytest.raises(RawDataError):
            infer_schema(path, CsvDialect(quote_char='"'))


class TestRoundtrip:
    def test_generated_dates_parse_back(self, tmp_path):
        path = tmp_path / "t.csv"
        spec = DatasetSpec(
            columns=(ColumnSpec("d", DataType.DATE, low=10, high=20),),
            n_rows=30,
            seed=2,
        )
        generate_csv(path, spec)
        for line in path.read_text().strip().split("\n")[1:]:
            day = days_to_date(10)
            assert len(line) == len(day.isoformat())
