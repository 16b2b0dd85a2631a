"""Failure injection: malformed raw data, schema drift, edge-shaped files.

In-situ engines meet dirty data with no loading step to catch it first;
errors must surface lazily, precisely (row numbers), and without
corrupting the adaptive state.
"""

import pytest

from repro import (
    Column,
    CsvDialect,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    write_csv,
)
from repro.errors import ConversionError, RawDataError
from repro.rawio.dialect import DEFAULT_DIALECT

TWO_INTS = TableSchema(
    [Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)]
)


class TestMalformedRows:
    def test_too_few_fields_reports_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1,2\n3\n5,6\n")
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        with pytest.raises(RawDataError):
            eng.query("SELECT b FROM t")

    def test_too_many_fields_detected_on_full_tokenize(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,2,3\n")
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        with pytest.raises(RawDataError):
            eng.query("SELECT a, b FROM t")

    def test_bad_value_reports_absolute_row(self, tmp_path):
        path = tmp_path / "badval.csv"
        path.write_text("a,b\n1,2\n3,4\nx,6\n")
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        with pytest.raises(ConversionError) as exc:
            eng.query("SELECT a FROM t")
        assert exc.value.row == 2

    @pytest.mark.parametrize(
        "dtype, good, dialect",
        [
            # The kernel's convert_span, and the scalar converter: a
            # DATE column, and an INTEGER one in a quoted dialect.
            (DataType.INTEGER, "7", DEFAULT_DIALECT),
            (DataType.DATE, "2020-01-02", DEFAULT_DIALECT),
            (DataType.INTEGER, "7", CsvDialect(quote_char='"')),
        ],
        ids=["kernel", "scalar-date", "scalar-quoted"],
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bad_value_under_selection_reports_its_row(
        self, tmp_path, dtype, good, dialect, warm
    ):
        """Converted for the survivors only, a bad field still names its
        own row, not the first row plus its rank among the survivors —
        on the tokenized path (cold) and the map jump (warm)."""
        path = tmp_path / "sel.csv"
        bad = 148
        body = [f"{i},{'oops' if i == bad else good}" for i in range(200)]
        path.write_text("a,c\n" + "\n".join(body) + "\n")
        schema = TableSchema(
            [Column("a", DataType.INTEGER), Column("c", dtype)]
        )
        eng = PostgresRaw(PostgresRawConfig(batch_size=16))
        eng.register_csv("t", path, schema, dialect)
        if warm:
            eng.query("SELECT a FROM t")  # caches ``a``
            eng.query("SELECT c FROM t WHERE a % 2 = 1")  # maps ``c``
            state = eng.table_state("t")
            assert state.cache.peek(1) is None
            assert state.positional_map.best_cover(1) is not None
        for sql in (
            "SELECT a, c FROM t WHERE a % 2 = 0",
            "SELECT c FROM t WHERE a > 140",
            "SELECT c FROM t",
        ):
            with pytest.raises(ConversionError) as exc:
                eng.query(sql)
            assert exc.value.row == bad, sql
            assert str(exc.value).startswith(f"row {bad}: "), sql

    def test_error_does_not_poison_engine(self, tmp_path):
        """A failed query must not leave broken adaptive state behind."""
        path = tmp_path / "poison.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        with pytest.raises(ConversionError):
            eng.query("SELECT b FROM t")
        # Column a is clean and must stay queryable, repeatedly.
        assert eng.query("SELECT SUM(a) AS s FROM t").scalar() == 4
        assert eng.query("SELECT SUM(a) AS s FROM t").scalar() == 4

    def test_clean_prefix_remains_usable_with_limit(self, tmp_path):
        from repro import PostgresRawConfig

        path = tmp_path / "tail_bad.csv"
        body = "\n".join(f"{i},{i * 2}" for i in range(100))
        path.write_text("a,b\n" + body + "\nbroken_row_no_comma\n")
        # Small batches so a LIMIT in the clean prefix never reaches the
        # broken tail (scans tokenize batch-at-a-time).
        eng = PostgresRaw(PostgresRawConfig(batch_size=32))
        eng.register_csv("t", path, TWO_INTS)
        # A LIMIT inside the clean prefix never touches the broken tail.
        result = eng.query("SELECT a FROM t LIMIT 5")
        assert result.column("a") == [0, 1, 2, 3, 4]
        with pytest.raises(RawDataError):
            eng.query("SELECT COUNT(b) AS n FROM t")


class TestEdgeShapedFiles:
    def test_empty_data_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")  # header only
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        assert eng.query("SELECT COUNT(*) AS n FROM t").scalar() == 0
        assert len(eng.query("SELECT a FROM t")) == 0
        assert len(eng.query("SELECT a FROM t WHERE b > 0")) == 0

    def test_single_row_single_column(self, tmp_path):
        schema = TableSchema([Column("only", DataType.INTEGER)])
        path = tmp_path / "one.csv"
        write_csv(path, [(7,)], schema)
        eng = PostgresRaw()
        eng.register_csv("t", path, schema)
        assert eng.query("SELECT only FROM t").scalar() == 7
        # Warm path too.
        assert eng.query("SELECT only FROM t").scalar() == 7

    def test_wide_table(self, tmp_path):
        n = 64
        schema = TableSchema(
            [Column(f"c{i}", DataType.INTEGER) for i in range(n)]
        )
        rows = [tuple(range(r, r + n)) for r in range(10)]
        path = tmp_path / "wide.csv"
        write_csv(path, rows, schema)
        eng = PostgresRaw()
        eng.register_csv("t", path, schema)
        assert eng.query("SELECT c63 FROM t WHERE c0 = 0").scalar() == 63
        # Anchored follow-up in the middle of the tuple.
        assert eng.query("SELECT c32 FROM t WHERE c0 = 3").scalar() == 35

    def test_all_null_column(self, tmp_path):
        path = tmp_path / "nulls.csv"
        path.write_text("a,b\n" + "\n".join(f"{i}," for i in range(10)) + "\n")
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        assert eng.query("SELECT COUNT(b) AS n FROM t").scalar() == 0
        assert eng.query("SELECT SUM(b) AS s FROM t").scalar() is None
        assert (
            eng.query("SELECT COUNT(*) AS n FROM t WHERE b IS NULL").scalar()
            == 10
        )

    def test_duplicate_registration_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [(1, 2)], TWO_INTS)
        eng = PostgresRaw()
        eng.register_csv("t", path, TWO_INTS)
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            eng.register_csv("t", path, TWO_INTS)
        eng.drop_table("t")
        eng.register_csv("t", path, TWO_INTS)  # re-register after drop
        assert eng.query("SELECT a FROM t").scalar() == 1
