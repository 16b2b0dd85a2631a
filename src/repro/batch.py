"""Vectorized data containers flowing between operators.

The executor is a block-at-a-time (vectorized) Volcano engine: every
operator consumes and produces :class:`Batch` objects, which map column
names to :class:`ColumnVector` values.  The raw-data scan operator emits
the same batches as the conventional heap/column scans, which is the
paper's architectural point — everything above the scan is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .datatypes import DataType, measure_text_bytes
from .errors import ExecutionError


@dataclass
class ColumnVector:
    """One column's binary values for a batch of rows.

    ``values`` follows the dtype's numpy representation (see
    :mod:`repro.datatypes`); ``null_mask`` is ``True`` where the value is
    SQL NULL.  The pair is immutable by convention — operators build new
    vectors rather than mutating inputs.
    """

    dtype: DataType
    values: np.ndarray
    null_mask: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != len(self.null_mask):
            raise ExecutionError(
                "values/null_mask length mismatch: "
                f"{len(self.values)} != {len(self.null_mask)}"
            )

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(
        cls,
        dtype: DataType,
        values: np.ndarray,
        null_mask: np.ndarray | None = None,
    ) -> "ColumnVector":
        if null_mask is None:
            null_mask = np.zeros(len(values), dtype=np.bool_)
        return cls(dtype, values, null_mask)

    @classmethod
    def from_pylist(
        cls, dtype: DataType, items: Iterable[object]
    ) -> "ColumnVector":
        """Build a vector from Python objects, treating ``None`` as NULL."""
        items = list(items)
        # One C-level pass each, no Python per element (a ``str`` is
        # assigned whole: TEXT and scalars never hold sequences).
        objects = np.empty(len(items), dtype=object)
        objects[:] = items
        mask = np.equal(objects, None).astype(np.bool_)
        if dtype is DataType.TEXT:
            values = objects
        else:
            values = np.zeros(len(items), dtype=dtype.numpy_dtype)
            valid = ~mask
            values[valid] = objects[valid].astype(dtype.numpy_dtype)
        return cls(dtype, values, mask)

    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by position (join/sort/filter materialization)."""
        return ColumnVector(
            self.dtype, self.values[indices], self.null_mask[indices]
        )

    def filter(self, keep: np.ndarray) -> "ColumnVector":
        """Keep rows where ``keep`` is True."""
        return ColumnVector(
            self.dtype, self.values[keep], self.null_mask[keep]
        )

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return ColumnVector(
            self.dtype, self.values[start:stop], self.null_mask[start:stop]
        )

    def to_pylist(self) -> list[object]:
        """Python objects with ``None`` for NULLs (result materialization)."""
        # ``tolist`` already yields int / float / bool / str per the
        # dtype's numpy representation; only NULL slots need patching.
        out = self.values.astype(self.dtype.numpy_dtype, copy=False).tolist()
        for i in np.flatnonzero(self.null_mask).tolist():
            out[i] = None
        return out

    def nbytes(self) -> int:
        """Heap footprint, used for cache budget accounting."""
        if self.dtype is DataType.TEXT:
            return measure_text_bytes(self.values) + self.null_mask.nbytes
        return self.values.nbytes + self.null_mask.nbytes

    @staticmethod
    def concat(parts: list["ColumnVector"]) -> "ColumnVector":
        if not parts:
            raise ExecutionError("cannot concat zero column vectors")
        dtype = parts[0].dtype
        if any(p.dtype is not dtype for p in parts):
            raise ExecutionError("cannot concat vectors of different types")
        return ColumnVector(
            dtype,
            np.concatenate([p.values for p in parts]),
            np.concatenate([p.null_mask for p in parts]),
        )


class Batch:
    """An ordered set of named column vectors of equal length."""

    __slots__ = ("columns", "num_rows")

    def __init__(
        self,
        columns: Mapping[str, ColumnVector] | None = None,
        num_rows: int | None = None,
    ) -> None:
        self.columns: dict[str, ColumnVector] = dict(columns or {})
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(
                f"ragged batch: column lengths {sorted(lengths)}"
            )
        if lengths:
            self.num_rows = lengths.pop()
            if num_rows is not None and num_rows != self.num_rows:
                raise ExecutionError(
                    f"explicit num_rows {num_rows} != column length {self.num_rows}"
                )
        else:
            # A column-less batch still has a row count (SELECT 1+1).
            self.num_rows = num_rows or 0

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"column {name!r} not in batch (have {sorted(self.columns)})"
            ) from None

    def column_names(self) -> list[str]:
        return list(self.columns)

    def with_column(self, name: str, vector: ColumnVector) -> "Batch":
        if self.columns and len(vector) != self.num_rows:
            raise ExecutionError(
                f"column {name!r} has {len(vector)} rows, batch has {self.num_rows}"
            )
        cols = dict(self.columns)
        cols[name] = vector
        return Batch(cols)

    def select(self, names: list[str]) -> "Batch":
        return Batch({n: self.column(n) for n in names})

    def filter(self, keep: np.ndarray) -> "Batch":
        return Batch({n: v.filter(keep) for n, v in self.columns.items()})

    def take(self, indices: np.ndarray) -> "Batch":
        return Batch({n: v.take(indices) for n, v in self.columns.items()})

    def slice(self, start: int, stop: int) -> "Batch":
        return Batch(
            {n: v.slice(start, stop) for n, v in self.columns.items()}
        )

    def rows(self) -> Iterator[tuple[object, ...]]:
        """Yield rows as Python tuples (result materialization path)."""
        lists = [v.to_pylist() for v in self.columns.values()]
        if not lists:
            return iter(() for _ in range(self.num_rows))
        return iter(zip(*lists))

    def to_pydict(self) -> dict[str, list[object]]:
        return {n: v.to_pylist() for n, v in self.columns.items()}

    @staticmethod
    def concat(parts: list["Batch"]) -> "Batch":
        parts = [p for p in parts if p.num_rows or p.columns]
        if not parts:
            return Batch()
        names = parts[0].column_names()
        return Batch(
            {
                n: ColumnVector.concat([p.column(n) for p in parts])
                for n in names
            }
        )

    @staticmethod
    def empty_like(schema: Mapping[str, DataType]) -> "Batch":
        """A zero-row batch carrying the given column layout."""
        cols = {}
        for name, dtype in schema.items():
            values = np.zeros(0, dtype=dtype.numpy_dtype)
            cols[name] = ColumnVector(
                dtype, values, np.zeros(0, dtype=np.bool_)
            )
        return Batch(cols)
