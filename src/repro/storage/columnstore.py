"""Columnar binary storage with block zone maps (the "DBMS X" profile).

Each column lives in its own ``.npy`` file of values, plus one of null
flags when it holds a NULL (no file: no NULLs).  At load time the
engine additionally builds *zone maps* — block min/max summaries for
numeric columns — which lets scans with pushed range/equality
predicates skip whole blocks.  This is the extra "tuning" work that
makes the commercial contestant's initialization slower and its scans
faster, producing the race dynamics the demo stages.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from numpy.lib import format as npy

from ..batch import Batch, ColumnVector
from ..catalog.schema import TableSchema
from ..core.metrics import BreakdownComponent, QueryMetrics
from ..datatypes import DataType
from ..errors import StorageError

_IO = BreakdownComponent.IO
_CONVERT = BreakdownComponent.CONVERT

#: Rows per zone-map block.
ZONE_BLOCK_ROWS = 4096


class ColumnStoreTable:
    """A loaded table stored column-at-a-time with zone maps."""

    def __init__(self, directory: Path, schema: TableSchema) -> None:
        self.directory = Path(directory)
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        self._nulls: dict[str, np.ndarray | None] = {}
        self._zones: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
        self._meta_cache: dict | None = None
        self._num_rows: int | None = None
        #: File -> (dtype, offset of the data) of the array saved in it;
        #: neither changes while the file lives.
        self._layouts: dict[Path, tuple[np.dtype, int]] = {}

    # ------------------------------------------------------------------
    # Loading.
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        schema: TableSchema,
        columns: dict[str, ColumnVector],
        build_zone_maps: bool = True,
    ) -> "ColumnStoreTable":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = schema.names()
        missing = [n for n in names if n not in columns]
        if missing:
            raise StorageError(f"missing columns at load time: {missing}")
        n_rows = len(columns[names[0]]) if names else 0

        zones: dict[str, dict[str, list[float]]] = {}
        for column in schema:
            vec = columns[column.name]
            if len(vec) != n_rows:
                raise StorageError(
                    f"column {column.name!r} has {len(vec)} rows, "
                    f"expected {n_rows}"
                )
            np.save(
                directory / f"{column.name}.values.npy", _stored_values(vec)
            )
            if vec.null_mask.any():
                np.save(
                    directory / f"{column.name}.nulls.npy",
                    np.ascontiguousarray(vec.null_mask),
                )
            if build_zone_maps and column.dtype in (
                DataType.INTEGER,
                DataType.FLOAT,
                DataType.DATE,
            ):
                zones[column.name] = _build_zone_map(vec)

        meta = {"zones": zones, "zone_block_rows": ZONE_BLOCK_ROWS}
        with open(directory / "meta.json", "w", encoding="utf-8") as f:
            json.dump(meta, f)
        return cls(directory, schema)

    def extend(
        self,
        columns: dict[str, ColumnVector],
        admit: Callable[[int], bool] = lambda nbytes: True,
    ) -> int:
        """Append rows to every column in O(appended) bytes.

        Values (and null flags, for a column that has its file) go onto
        the end of the existing files; a column's flags file is written
        out whole the first time a NULL arrives.  ``admit`` is asked
        once for the bytes about to be added.  Returns those bytes — or
        0, with nothing written, when it refuses or when a TEXT value
        is wider than its column was saved with, the one thing an
        append cannot represent.
        """
        if self._meta()["zones"]:
            raise StorageError("cannot extend a table that has zone maps")
        lengths = {len(columns[column.name]) for column in self.schema}
        if len(lengths) != 1:
            raise StorageError(f"ragged extension: lengths {sorted(lengths)}")
        n_rows = self.num_rows
        appends: list[tuple[Path, np.ndarray]] = []
        saves: list[tuple[Path, bytes]] = []
        for column in self.schema:
            vec = columns[column.name]
            values_path = self.directory / f"{column.name}.values.npy"
            saved_dtype = self._layout(values_path)[0]
            values = _stored_values(vec)
            if values.dtype.itemsize > saved_dtype.itemsize:
                return 0
            appends.append(
                (values_path, values.astype(saved_dtype, copy=False))
            )
            nulls_path = self.directory / f"{column.name}.nulls.npy"
            if nulls_path.exists():
                appends.append((nulls_path, vec.null_mask))
            elif vec.null_mask.any():
                flags = io.BytesIO()
                np.save(
                    flags,
                    np.concatenate(
                        [np.zeros(n_rows, dtype=np.bool_), vec.null_mask]
                    ),
                )
                saves.append((nulls_path, flags.getvalue()))
        added = sum(tail.nbytes for __, tail in appends)
        added += sum(len(payload) for __, payload in saves)
        if not admit(added):
            return 0
        for path, tail in appends:
            _append_npy(path, tail, n_rows, self._layout(path)[1])
        for path, payload in saves:
            path.write_bytes(payload)
        # The mapped arrays end at the old row count.
        self._columns.clear()
        self._nulls.clear()
        self._num_rows = n_rows + lengths.pop()
        return added

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

    def _meta(self) -> dict:
        """The zone maps, written once at load time."""
        if self._meta_cache is None:
            path = self.directory / "meta.json"
            with open(path, "r", encoding="utf-8") as f:
                self._meta_cache = json.load(f)
        return self._meta_cache

    @property
    def num_rows(self) -> int:
        """Rows saved — every column's values file says so itself."""
        if self._num_rows is None:
            names = self.schema.names()
            self._num_rows = (
                _saved_layout(self.directory / f"{names[0]}.values.npy")[0]
                if names
                else 0
            )
        return self._num_rows

    def _layout(self, path: Path) -> tuple[np.dtype, int]:
        layout = self._layouts.get(path)
        if layout is None:
            layout = self._layouts[path] = _saved_layout(path)[1:]
        return layout

    def zone_map(self, column: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(block_mins, block_maxs) for a numeric column, if built."""
        if self._zones is None:
            meta = self._meta()
            self._zones = {
                name: (
                    np.asarray(z["mins"], dtype=np.float64),
                    np.asarray(z["maxs"], dtype=np.float64),
                )
                for name, z in meta.get("zones", {}).items()
            }
        return self._zones.get(column)

    def _column_arrays(
        self, name: str, metrics: QueryMetrics | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The mapped values and null flags (``None``: no NULLs)."""
        if name not in self._columns:
            values_path = self.directory / f"{name}.values.npy"
            nulls_path = self.directory / f"{name}.nulls.npy"

            def load() -> None:
                self._columns[name] = np.load(values_path, mmap_mode="r")
                self._nulls[name] = (
                    np.load(nulls_path, mmap_mode="r")
                    if nulls_path.exists()
                    else None
                )

            if metrics is not None:
                with metrics.time(_IO):
                    load()
                    metrics.bytes_read += self._columns[name].nbytes
                    if self._nulls[name] is not None:
                        metrics.bytes_read += self._nulls[name].nbytes
            else:
                load()
        return self._columns[name], self._nulls[name]

    def _vector(
        self,
        name: str,
        sl: slice | np.ndarray,
        metrics: QueryMetrics | None,
    ) -> ColumnVector:
        dtype = self.schema.dtype_of(name)
        values, nulls = self._column_arrays(name, metrics)
        raw = values[sl]
        if nulls is None:
            nul = np.zeros(len(raw), dtype=np.bool_)
        else:
            nul = np.ascontiguousarray(nulls[sl])
        if dtype is DataType.TEXT:
            if metrics is not None:
                with metrics.time(_CONVERT):
                    out = _decode_text(raw, nul)
            else:
                out = _decode_text(raw, nul)
            return ColumnVector(dtype, out, nul)
        return ColumnVector(dtype, np.ascontiguousarray(raw), nul)

    def scan(
        self,
        columns: list[str],
        batch_size: int,
        metrics: QueryMetrics | None = None,
        block_filter: np.ndarray | None = None,
    ) -> Iterator[Batch]:
        """Batch scan; ``block_filter`` marks zone-map blocks to keep.

        ``block_filter[b]`` False means block ``b`` (of
        ``ZONE_BLOCK_ROWS`` rows) provably contains no qualifying row
        and is skipped without being read.
        """
        n = self.num_rows
        for r0 in range(0, n, batch_size):
            r1 = min(n, r0 + batch_size)
            if block_filter is not None:
                b0 = r0 // ZONE_BLOCK_ROWS
                b1 = (r1 - 1) // ZONE_BLOCK_ROWS
                if not block_filter[b0 : b1 + 1].any():
                    continue
            yield Batch(
                {
                    name: self._vector(name, slice(r0, r1), metrics)
                    for name in columns
                },
                num_rows=r1 - r0,
            )

    def gather(
        self,
        columns: list[str],
        row_ids: np.ndarray,
        metrics: QueryMetrics | None = None,
    ) -> Batch:
        return Batch(
            {
                name: self._vector(name, row_ids, metrics)
                for name in columns
            },
            num_rows=len(row_ids),
        )

    def storage_bytes(self) -> int:
        total = 0
        for path in self.directory.glob("*.npy"):
            total += path.stat().st_size
        return total


def _stored_values(vec: ColumnVector) -> np.ndarray:
    """``vec.values`` as saved: TEXT as fixed-width UTF-8 bytes (a NULL
    as ``b""``), every other type as it is."""
    if vec.dtype is not DataType.TEXT:
        return np.ascontiguousarray(vec.values)
    encoded = [
        v.encode("utf-8") if v is not None else b"" for v in vec.values
    ]
    width = max(map(len, encoded), default=1)
    return np.array(encoded, dtype=f"S{max(width, 1)}")


def _saved_layout(path: Path) -> tuple[int, np.dtype, int]:
    """Rows, dtype and data offset of the 1-d array saved at ``path``."""
    with open(path, "rb") as f:
        npy.read_magic(f)
        (rows,), __, dtype = npy.read_array_header_1_0(f)
        return rows, dtype, f.tell()


def _append_npy(
    path: Path, tail: np.ndarray, n_old: int, data_start: int
) -> None:
    """Append ``tail`` to the ``n_old``-row 1-d array saved at ``path``
    (same dtype; its data starts at byte ``data_start``).

    The rows go onto the end of the data, then the header's shape is
    rewritten in place — ``np.save`` pads its headers for exactly this
    growth.  Arrays mapped from the file before the call stay valid:
    the bytes they cover do not change.
    """
    header = io.BytesIO()
    npy.write_array_header_1_0(
        header,
        {
            "descr": npy.dtype_to_descr(tail.dtype),
            "fortran_order": False,
            "shape": (n_old + len(tail),),
        },
    )
    if header.tell() != data_start:
        raise StorageError(f"cannot append in place to {path}")
    fd = os.open(path, os.O_WRONLY)
    try:
        os.pwrite(fd, tail.tobytes(), data_start + n_old * tail.itemsize)
        os.pwrite(fd, header.getvalue(), 0)
    finally:
        os.close(fd)


def _build_zone_map(vec: ColumnVector) -> dict[str, list[float]]:
    mins: list[float] = []
    maxs: list[float] = []
    n = len(vec)
    for b0 in range(0, n, ZONE_BLOCK_ROWS):
        block = vec.values[b0 : b0 + ZONE_BLOCK_ROWS]
        nulls = vec.null_mask[b0 : b0 + ZONE_BLOCK_ROWS]
        valid = block[~nulls]
        if len(valid):
            mins.append(float(valid.min()))
            maxs.append(float(valid.max()))
        else:
            mins.append(float("inf"))
            maxs.append(float("-inf"))
    return {"mins": mins, "maxs": maxs}


def _decode_text(raw: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    values = np.empty(len(raw), dtype=object)
    decoded = np.char.decode(raw, "utf-8")
    for i, text in enumerate(decoded):
        values[i] = None if nulls[i] else str(text)
    return values
