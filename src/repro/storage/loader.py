"""Bulk loading: the initialization cost PostgresRaw exists to avoid.

A conventional DBMS must read the entire raw file, tokenize every tuple,
convert every field to binary and write it all back out in its storage
format before the first query can run — "the conventional DBMS have to
go through a time consuming initialization phase".  :func:`load_csv_to_
columns` performs (and meters) exactly that work.  It tokenizes with
the tokenizer the in-situ engine picks for the same dialect
(:func:`repro.kernels.kernel_supported`: the scan kernel, or the
RFC-4180 state machine) so the comparison is apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..batch import ColumnVector
from ..catalog.schema import TableSchema
from ..datatypes import convert_column
from ..errors import RawDataError
from ..kernels import (
    ContentBuffer,
    ScanKernel,
    kernel_supported,
    make_signature,
)
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT
from ..rawio.reader import RawFileReader
from ..rawio.tokenizer import build_line_index, tokenize_span, trim_cr

_CHUNK_ROWS = 16384


@dataclass
class LoadReport:
    """Where the load time went (reported by the race harness)."""

    rows: int = 0
    bytes_read: int = 0
    io_seconds: float = 0.0
    tokenize_seconds: float = 0.0
    convert_seconds: float = 0.0
    write_seconds: float = 0.0
    index_seconds: float = 0.0
    analyze_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.io_seconds
            + self.tokenize_seconds
            + self.convert_seconds
            + self.write_seconds
            + self.index_seconds
            + self.analyze_seconds
        )


def load_csv_to_columns(
    path: str | Path,
    schema: TableSchema,
    dialect: CsvDialect = DEFAULT_DIALECT,
) -> tuple[dict[str, ColumnVector], LoadReport]:
    """Fully parse a raw file into binary columns (COPY's CPU half).

    The caller persists the columns through a storage engine and adds
    the write time to the report.
    """
    report = LoadReport()

    t0 = time.perf_counter()
    with RawFileReader(path) as reader:
        content = reader.read_range(0, reader.size)
    report.bytes_read = len(content)
    report.io_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    bounds = build_line_index(content, dialect.has_header)
    report.tokenize_seconds += time.perf_counter() - t0
    n_rows = len(bounds) - 1
    report.rows = n_rows
    n_attrs = len(schema)

    window = ContentBuffer(content)
    kernel = None
    if kernel_supported(dialect):
        kernel = ScanKernel(
            make_signature(dialect, tuple(schema.dtypes()), 0, n_attrs - 1)
        )
    texts_per_column: list[list[str]] = [[] for __ in range(n_attrs)]
    for r0 in range(0, n_rows, _CHUNK_ROWS):
        r1 = min(n_rows, r0 + _CHUNK_ROWS)
        t0 = time.perf_counter()
        starts = bounds[r0:r1]
        line_ends = trim_cr(window.buf, starts, bounds[r0 + 1 : r1 + 1] - 1)
        if kernel is not None:
            tokenized = kernel.tokenize(window, starts, line_ends)
        else:
            tokenized = tokenize_span(
                content, starts, line_ends, 0, n_attrs - 1, n_attrs, dialect
            )
        # The kernel slices field texts lazily: charge them here too.
        for a in range(n_attrs):
            texts_per_column[a].extend(tokenized.texts_of(a))
        report.tokenize_seconds += time.perf_counter() - t0

    columns: dict[str, ColumnVector] = {}
    for a, column in enumerate(schema):
        t0 = time.perf_counter()
        values, nulls = convert_column(
            texts_per_column[a], column.dtype, dialect.null_token
        )
        report.convert_seconds += time.perf_counter() - t0
        columns[column.name] = ColumnVector(column.dtype, values, nulls)
        texts_per_column[a] = []  # release text early

    if n_rows == 0 and n_attrs == 0:
        raise RawDataError(f"nothing to load from {path}")
    return columns, report
