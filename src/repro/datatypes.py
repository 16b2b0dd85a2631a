"""Data types and text<->binary conversion.

PostgresRaw's "parsing" step transforms raw text fields into the binary
values a conventional query plan consumes.  This module defines the type
system shared by the in-situ engine, the conventional storage engines and
the SQL layer, together with the (deliberately explicit) conversion
routines whose cost the paper's "Convert" breakdown component measures.

Binary representation:

* ``INTEGER``  — ``numpy.int64`` (NULL = 0 under a mask)
* ``FLOAT``    — ``numpy.float64`` (NULL = nan under a mask)
* ``BOOLEAN``  — ``numpy.bool_``
* ``DATE``     — ``numpy.int64`` days since 1970-01-01
* ``TEXT``     — ``numpy.int32`` codes into a sorted dictionary of the
  distinct ``str`` values (see :class:`repro.batch.ColumnVector`)

NULLs are carried in a separate boolean mask rather than sentinel values
so that comparisons and aggregates can implement SQL three-valued logic
without special-casing sentinels.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Callable, Sequence

import numpy as np

from .errors import ConversionError

_EPOCH = _dt.date(1970, 1, 1)

_TRUE_TOKENS = frozenset({"t", "true", "1", "yes", "y"})
_FALSE_TOKENS = frozenset({"f", "false", "0", "no", "n"})


class DataType(enum.Enum):
    """SQL-visible column types supported by the engine."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    DATE = "date"

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def binary_width(self) -> int:
        """Bytes per value in the binary (cache / loaded-table) format.

        TEXT is estimated at the pointer-plus-average-payload size used
        for cache budget accounting; actual strings are measured when
        cached.
        """
        return _BINARY_WIDTHS[self]

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a SQL type name (``INT``, ``VARCHAR``, ...)."""
        try:
            return _TYPE_ALIASES[name.strip().lower()]
        except KeyError:
            raise ConversionError(
                f"unknown data type name: {name!r}"
            ) from None


_NUMPY_DTYPES = {
    DataType.INTEGER: np.dtype(np.int64),
    DataType.FLOAT: np.dtype(np.float64),
    DataType.TEXT: np.dtype(np.int32),
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.DATE: np.dtype(np.int64),
}

_BINARY_WIDTHS = {
    DataType.INTEGER: 8,
    DataType.FLOAT: 8,
    DataType.TEXT: 16,
    DataType.BOOLEAN: 1,
    DataType.DATE: 8,
}

_TYPE_ALIASES = {
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "bigint": DataType.INTEGER,
    "smallint": DataType.INTEGER,
    "float": DataType.FLOAT,
    "double": DataType.FLOAT,
    "real": DataType.FLOAT,
    "numeric": DataType.FLOAT,
    "decimal": DataType.FLOAT,
    "text": DataType.TEXT,
    "varchar": DataType.TEXT,
    "char": DataType.TEXT,
    "string": DataType.TEXT,
    "bool": DataType.BOOLEAN,
    "boolean": DataType.BOOLEAN,
    "date": DataType.DATE,
}


def date_to_days(value: _dt.date) -> int:
    """Convert a :class:`datetime.date` to the engine's day-number form."""
    return (value - _EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Inverse of :func:`date_to_days`."""
    return _EPOCH + _dt.timedelta(days=int(days))


def parse_date(text: str) -> int:
    """Parse ``YYYY-MM-DD`` into days since epoch."""
    try:
        year, month, day = text.split("-")
        return date_to_days(_dt.date(int(year), int(month), int(day)))
    except (ValueError, TypeError) as exc:
        raise ConversionError(f"bad date literal: {text!r}") from exc


def parse_boolean(text: str) -> bool:
    token = text.strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ConversionError(f"bad boolean literal: {text!r}")


def parse_scalar(text: str, dtype: DataType):
    """Convert one text field to its binary value (``None`` stays ``None``).

    This is the single-value path used by point extraction through the
    positional map; the hot full-column path is :func:`convert_column`.
    """
    if text is None:
        return None
    if dtype is DataType.INTEGER:
        try:
            return int(text)
        except ValueError as exc:
            raise ConversionError(f"bad integer literal: {text!r}") from exc
    if dtype is DataType.FLOAT:
        try:
            return float(text)
        except ValueError as exc:
            raise ConversionError(f"bad float literal: {text!r}") from exc
    if dtype is DataType.TEXT:
        return text
    if dtype is DataType.BOOLEAN:
        return parse_boolean(text)
    if dtype is DataType.DATE:
        return parse_date(text)
    raise ConversionError(f"unhandled data type: {dtype}")


def format_scalar(value, dtype: DataType, null_token: str = "") -> str:
    """Render one binary value back to raw text (CSV writer path)."""
    if value is None:
        return null_token
    if dtype is DataType.DATE:
        return days_to_date(int(value)).isoformat()
    if dtype is DataType.BOOLEAN:
        return "true" if value else "false"
    if dtype is DataType.FLOAT:
        return repr(float(value))
    return str(value)


def convert_column(
    texts: Sequence[str | None],
    dtype: DataType,
    null_token: str = "",
    row_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a column of raw text fields to ``(values, null_mask)``.

    This is the engine's "Convert" phase for INTEGER, FLOAT, BOOLEAN and
    DATE (TEXT is factorized instead: :meth:`ColumnVector.from_texts
    <repro.batch.ColumnVector.from_texts>`).  ``row_offset`` is only
    used to report the absolute row number of a malformed field.
    ``None`` entries and entries equal to ``null_token`` become NULLs.
    """
    n = len(texts)
    mask = np.zeros(n, dtype=np.bool_)
    converter = _SCALAR_CONVERTERS[dtype]
    values = np.zeros(n, dtype=dtype.numpy_dtype)
    for i, t in enumerate(texts):
        if t is None or t == null_token:
            mask[i] = True
        else:
            try:
                values[i] = converter(t)
            except (ValueError, ConversionError) as exc:
                raise ConversionError(
                    f"row {row_offset + i}: cannot convert {t!r} to {dtype.value}",
                    row=row_offset + i,
                ) from exc
    return values, mask


_SCALAR_CONVERTERS: dict[DataType, Callable[[str], object]] = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.BOOLEAN: parse_boolean,
    DataType.DATE: parse_date,
}


def null_array(dtype: DataType, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An all-NULL column of length ``n`` in binary form."""
    return np.zeros(n, dtype=dtype.numpy_dtype), np.ones(n, dtype=np.bool_)
