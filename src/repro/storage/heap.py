"""Row-oriented binary heap storage (PostgreSQL/MySQL-like profiles).

Rows are packed into a numpy *structured* array — one record per tuple,
column values and per-column null flags interleaved row-major, exactly
the access pattern of a slotted-page row store: reading one column
strides across the whole record, reading a whole row is contiguous.

The table is persisted as a single ``.heap.npy`` file and scanned with
``mmap`` so the I/O meter sees real reads.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..batch import Batch, ColumnVector
from ..catalog.schema import TableSchema
from ..core.metrics import BreakdownComponent, QueryMetrics
from ..datatypes import DataType
from ..errors import StorageError

_IO = BreakdownComponent.IO
_CONVERT = BreakdownComponent.CONVERT


def _record_dtype(
    schema: TableSchema, text_widths: dict[str, int]
) -> np.dtype:
    fields = []
    for i, column in enumerate(schema):
        if column.dtype is DataType.TEXT:
            width = max(text_widths.get(column.name, 1), 1)
            fields.append((f"v{i}", f"S{width}"))
        elif column.dtype is DataType.BOOLEAN:
            fields.append((f"v{i}", np.bool_))
        elif column.dtype is DataType.FLOAT:
            fields.append((f"v{i}", np.float64))
        else:  # INTEGER, DATE
            fields.append((f"v{i}", np.int64))
        fields.append((f"n{i}", np.bool_))
    return np.dtype(fields)


class RowHeapTable:
    """A loaded table stored as one row-major binary file."""

    def __init__(self, path: Path, schema: TableSchema) -> None:
        self.path = Path(path)
        self.schema = schema
        self._records: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Loading.
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        schema: TableSchema,
        columns: dict[str, ColumnVector],
    ) -> "RowHeapTable":
        """Pack converted columns into records and persist them."""
        path = Path(path)
        names = schema.names()
        missing = [n for n in names if n not in columns]
        if missing:
            raise StorageError(f"missing columns at load time: {missing}")
        n_rows = len(columns[names[0]]) if names else 0

        # TEXT is stored per row, as fixed-width UTF-8 bytes (a NULL as
        # ``b""``), the row store's own layout.
        encoded_texts = {
            column.name: [
                b"" if v is None else v.encode("utf-8")
                for v in columns[column.name].to_pylist()
            ]
            for column in schema
            if column.dtype is DataType.TEXT
        }
        text_widths = {
            name: max(map(len, encoded), default=1)
            for name, encoded in encoded_texts.items()
        }

        records = np.zeros(n_rows, dtype=_record_dtype(schema, text_widths))
        for i, column in enumerate(schema):
            vec = columns[column.name]
            if len(vec) != n_rows:
                raise StorageError(
                    f"column {column.name!r} has {len(vec)} rows, "
                    f"expected {n_rows}"
                )
            if column.dtype is DataType.TEXT:
                records[f"v{i}"] = encoded_texts[column.name]
            else:
                records[f"v{i}"] = vec.values
            records[f"n{i}"] = vec.null_mask
        np.save(path, records, allow_pickle=False)
        table = cls(path, schema)
        return table

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

    def _load(self, metrics: QueryMetrics | None) -> np.ndarray:
        if self._records is None:
            actual = self.path if self.path.suffix == ".npy" else Path(
                str(self.path) + ".npy"
            )
            if metrics is not None:
                with metrics.time(_IO):
                    self._records = np.load(actual, mmap_mode="r")
                    metrics.bytes_read += self._records.nbytes
            else:
                self._records = np.load(actual, mmap_mode="r")
        return self._records

    @property
    def num_rows(self) -> int:
        return int(len(self._load(None)))

    def _column_vector(
        self,
        records: np.ndarray,
        name: str,
        metrics: QueryMetrics | None,
    ) -> ColumnVector:
        i = self.schema.position(name)
        dtype = self.schema.dtype_of(name)
        raw = records[f"v{i}"]
        nulls = np.ascontiguousarray(records[f"n{i}"])
        if dtype is not DataType.TEXT:
            return ColumnVector(dtype, np.ascontiguousarray(raw), nulls)
        # Decoding bytes back to str is the row store's "detoast" cost.
        if metrics is not None:
            with metrics.time(_CONVERT):
                return _decode_text(raw, nulls)
        return _decode_text(raw, nulls)

    def scan(
        self,
        columns: list[str],
        batch_size: int,
        metrics: QueryMetrics | None = None,
    ) -> Iterator[Batch]:
        records = self._load(metrics)
        n = len(records)
        for r0 in range(0, n, batch_size):
            chunk = records[r0 : min(n, r0 + batch_size)]
            yield Batch(
                {
                    name: self._column_vector(chunk, name, metrics)
                    for name in columns
                },
                num_rows=len(chunk),
            )

    def gather(
        self,
        columns: list[str],
        row_ids: np.ndarray,
        metrics: QueryMetrics | None = None,
    ) -> Batch:
        records = self._load(metrics)
        chunk = records[row_ids]
        return Batch(
            {
                name: self._column_vector(chunk, name, metrics)
                for name in columns
            },
            num_rows=len(chunk),
        )

    def storage_bytes(self) -> int:
        return self._load(None).nbytes


def _decode_text(raw: np.ndarray, nulls: np.ndarray) -> ColumnVector:
    texts = np.char.decode(raw, "utf-8").astype(object)
    texts[nulls] = None
    return ColumnVector.from_texts(texts.tolist())
