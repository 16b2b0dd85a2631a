"""Schema inference for raw files.

NoDB needs only "a pointer to the raw data files" plus a schema; when the
user has no schema at hand, :func:`infer_schema` derives one from the
header line and a small sample of rows (narrowest type that fits:
INTEGER -> FLOAT -> DATE -> BOOLEAN -> TEXT).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..catalog.schema import Column, TableSchema
from ..datatypes import DataType, parse_boolean, parse_date
from ..errors import ConversionError, RawDataError
from .dialect import CsvDialect, DEFAULT_DIALECT

_SAMPLE_ROWS = 200


def sniff_format(path: str | Path) -> str:
    """Detect a raw file's format: ``"jsonl"`` or ``"csv"``.

    A file whose first non-empty line parses as a JSON object is JSONL;
    everything else — including single-column CSVs, CSVs whose *quoted
    fields* happen to contain JSON text, and empty files — is CSV (the
    historical default).  A UTF-8 byte-order mark is skipped, as the
    line index skips it.  A quoted CSV field never starts a line with a
    bare ``{``, so the probe is unambiguous on well-formed inputs.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig") as f:
        for line in f:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("{"):
                try:
                    return (
                        "jsonl"
                        if isinstance(json.loads(stripped), dict)
                        else "csv"
                    )
                except ValueError:
                    return "csv"
            return "csv"
    return "csv"


def _fits(texts: list[str], probe) -> bool:
    for t in texts:
        try:
            probe(t)
        except (ValueError, ConversionError):
            return False
    return True


def infer_column_type(texts: list[str]) -> DataType:
    """Narrowest type accepting every sampled (non-null) value."""
    if not texts:
        return DataType.TEXT
    if _fits(texts, int):
        return DataType.INTEGER
    if _fits(texts, float):
        return DataType.FLOAT
    if _fits(texts, parse_date):
        return DataType.DATE
    if _fits(texts, parse_boolean):
        return DataType.BOOLEAN
    return DataType.TEXT


def infer_schema(
    path: str | Path,
    dialect: CsvDialect = DEFAULT_DIALECT,
    sample_rows: int = _SAMPLE_ROWS,
) -> TableSchema:
    """Infer column names and types from the head of a raw file.

    Reads at most ``sample_rows`` data lines.  Quoted dialects are not
    supported here (provide an explicit schema instead).
    """
    if dialect.quoting:
        raise RawDataError(
            "schema inference does not support quoted dialects; "
            "pass an explicit schema"
        )
    path = Path(path)
    lines: list[str] = []
    with open(path, "r", encoding="utf-8-sig") as f:
        for line in f:
            lines.append(line.rstrip("\n"))
            if len(lines) > sample_rows:
                break
    if not lines:
        raise RawDataError(f"cannot infer a schema from empty file {path}")

    if dialect.has_header:
        names = lines[0].split(dialect.delimiter)
        data_lines = lines[1:]
    else:
        names = None
        data_lines = lines

    rows = [line.split(dialect.delimiter) for line in data_lines if line]
    width = len(names) if names is not None else (len(rows[0]) if rows else 0)
    if width == 0:
        raise RawDataError(f"cannot infer a schema for {path}")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RawDataError(
                f"row {i} has {len(row)} fields, expected {width}", row=i
            )
    if names is None:
        names = [f"a{i}" for i in range(width)]

    columns = []
    for i, name in enumerate(names):
        samples = [
            row[i]
            for row in rows
            if row[i] != dialect.null_token
        ]
        columns.append(Column(name.strip(), infer_column_type(samples)))
    return TableSchema(columns)


def infer_schema_jsonl(
    path: str | Path, sample_rows: int = _SAMPLE_ROWS
) -> TableSchema:
    """Infer a schema from the head of a JSON-lines file.

    Keys are taken in first-seen order; each key's type is the
    narrowest one accepting every sampled non-null value (JSON types
    first — bool/int/float are native — then DATE-looking strings).
    """
    path = Path(path)
    keys: list[str] = []
    samples: dict[str, list[object]] = {}
    n = 0
    with open(path, "r", encoding="utf-8-sig") as f:
        for line in f:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except ValueError as exc:
                raise RawDataError(
                    f"row {n}: not valid JSON ({exc})", row=n
                ) from None
            if not isinstance(record, dict):
                raise RawDataError(
                    f"row {n}: JSONL records must be objects", row=n
                )
            for key, value in record.items():
                if key not in samples:
                    keys.append(key)
                    samples[key] = []
                if isinstance(value, (dict, list)):
                    raise RawDataError(
                        f"row {n}: key {key!r} holds a nested container; "
                        "JSONL tables hold flat rows",
                        row=n,
                    )
                if value is not None:
                    samples[key].append(value)
            n += 1
            if n >= sample_rows:
                break
    if not keys:
        raise RawDataError(f"cannot infer a schema from empty file {path}")

    columns = []
    for key in keys:
        values = samples[key]
        # bool before int: bool is an int subclass in Python.
        if values and all(isinstance(v, bool) for v in values):
            dtype = DataType.BOOLEAN
        elif values and all(
            isinstance(v, int) and not isinstance(v, bool) for v in values
        ):
            dtype = DataType.INTEGER
        elif values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values
        ):
            dtype = DataType.FLOAT
        elif values and all(isinstance(v, str) for v in values):
            dtype = (
                DataType.DATE
                if _fits(values, parse_date)
                else DataType.TEXT
            )
        else:
            dtype = DataType.TEXT
        columns.append(Column(key, dtype))
    return TableSchema(columns)
