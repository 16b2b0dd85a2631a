"""Unit tests for the type system and text<->binary conversion."""

import datetime

import numpy as np
import pytest

from repro.batch import ColumnVector
from repro.datatypes import (
    DataType,
    convert_column,
    date_to_days,
    days_to_date,
    format_scalar,
    null_array,
    parse_boolean,
    parse_date,
    parse_scalar,
)
from repro.errors import ConversionError


class TestDataType:
    def test_from_name_aliases(self):
        assert DataType.from_name("INT") is DataType.INTEGER
        assert DataType.from_name("bigint") is DataType.INTEGER
        assert DataType.from_name("VARCHAR") is DataType.TEXT
        assert DataType.from_name("double") is DataType.FLOAT
        assert DataType.from_name("Bool") is DataType.BOOLEAN
        assert DataType.from_name(" date ") is DataType.DATE

    def test_from_name_unknown_raises(self):
        with pytest.raises(ConversionError):
            DataType.from_name("geometry")

    def test_numeric_flags(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.TEXT.is_numeric
        assert not DataType.DATE.is_numeric

    def test_numpy_dtypes(self):
        assert DataType.INTEGER.numpy_dtype == np.dtype(np.int64)
        assert DataType.FLOAT.numpy_dtype == np.dtype(np.float64)
        # TEXT vectors hold dictionary codes.
        assert DataType.TEXT.numpy_dtype == np.dtype(np.int32)

    def test_binary_widths_positive(self):
        for dtype in DataType:
            assert dtype.binary_width > 0


class TestDates:
    def test_roundtrip(self):
        for iso in ("1970-01-01", "2012-08-27", "1969-12-31", "2100-02-28"):
            days = parse_date(iso)
            assert days_to_date(days).isoformat() == iso

    def test_epoch_is_zero(self):
        assert date_to_days(datetime.date(1970, 1, 1)) == 0

    def test_bad_date_raises(self):
        with pytest.raises(ConversionError):
            parse_date("2012-13-01")
        with pytest.raises(ConversionError):
            parse_date("not-a-date")
        with pytest.raises(ConversionError):
            parse_date("20120827")


class TestBooleans:
    @pytest.mark.parametrize("text", ["t", "true", "TRUE", "1", "yes", "Y"])
    def test_true_tokens(self, text):
        assert parse_boolean(text) is True

    @pytest.mark.parametrize("text", ["f", "false", "0", "no", "N"])
    def test_false_tokens(self, text):
        assert parse_boolean(text) is False

    def test_bad_boolean_raises(self):
        with pytest.raises(ConversionError):
            parse_boolean("maybe")


class TestParseScalar:
    def test_integer(self):
        assert parse_scalar("42", DataType.INTEGER) == 42
        assert parse_scalar("-7", DataType.INTEGER) == -7

    def test_float(self):
        assert parse_scalar("2.5", DataType.FLOAT) == 2.5

    def test_text_passthrough(self):
        assert parse_scalar("hello", DataType.TEXT) == "hello"

    def test_none_stays_none(self):
        assert parse_scalar(None, DataType.INTEGER) is None

    def test_date(self):
        assert parse_scalar("1970-01-02", DataType.DATE) == 1

    def test_bad_integer_raises(self):
        with pytest.raises(ConversionError):
            parse_scalar("4.5", DataType.INTEGER)


class TestFormatScalar:
    def test_roundtrip_with_parse(self):
        cases = [
            (123, DataType.INTEGER),
            (-1.5, DataType.FLOAT),
            ("txt", DataType.TEXT),
            (True, DataType.BOOLEAN),
            (parse_date("2012-08-27"), DataType.DATE),
        ]
        for value, dtype in cases:
            text = format_scalar(value, dtype)
            assert parse_scalar(text, dtype) == value

    def test_null_token(self):
        assert format_scalar(None, DataType.INTEGER) == ""
        assert format_scalar(None, DataType.TEXT, null_token="NULL") == "NULL"


class TestConvertColumn:
    def test_integers(self):
        values, mask = convert_column(["1", "2", "3"], DataType.INTEGER)
        assert values.tolist() == [1, 2, 3]
        assert not mask.any()

    def test_nulls_via_empty_token(self):
        values, mask = convert_column(["1", "", "3"], DataType.INTEGER)
        assert mask.tolist() == [False, True, False]
        assert values[0] == 1 and values[2] == 3

    def test_custom_null_token(self):
        values, mask = convert_column(
            ["1", "NA", "3"], DataType.INTEGER, null_token="NA"
        )
        assert mask.tolist() == [False, True, False]

    def test_none_entries_are_null(self):
        __, mask = convert_column([None, "1"], DataType.INTEGER)
        assert mask.tolist() == [True, False]

    def test_text_column(self):
        # TEXT is factorized by the scalar constructor, not converted.
        vector = ColumnVector.from_fields(["c", "", "a", "c"], DataType.TEXT)
        assert vector.to_pylist() == ["c", None, "a", "c"]
        assert vector.dictionary.tolist() == ["a", "c"]
        assert vector.values[[0, 2, 3]].tolist() == [1, 0, 1]
        assert vector.null_mask.tolist() == [False, True, False, False]

    def test_error_reports_absolute_row(self):
        with pytest.raises(ConversionError) as exc:
            convert_column(["1", "x"], DataType.INTEGER, row_offset=100)
        assert exc.value.row == 101

    def test_dates_and_bools(self):
        values, __ = convert_column(
            ["1970-01-03", "1970-01-01"], DataType.DATE
        )
        assert values.tolist() == [2, 0]
        values, __ = convert_column(["true", "false"], DataType.BOOLEAN)
        assert values.tolist() == [True, False]

    def test_empty_input(self):
        values, mask = convert_column([], DataType.FLOAT)
        assert len(values) == 0 and len(mask) == 0


class TestHelpers:
    def test_null_array(self):
        values, mask = null_array(DataType.INTEGER, 4)
        assert mask.all() and len(values) == 4
        values, mask = null_array(DataType.TEXT, 2)
        assert values.dtype == np.int32 and mask.all()

    def test_text_nbytes_scales_with_content(self):
        short = ColumnVector.from_pylist(DataType.TEXT, ["a", "b"])
        long = ColumnVector.from_pylist(DataType.TEXT, ["a" * 100, "b" * 100])
        assert long.nbytes() > short.nbytes()
        with_null = ColumnVector.from_pylist(DataType.TEXT, [None, "ab"])
        assert with_null.nbytes() > 0
