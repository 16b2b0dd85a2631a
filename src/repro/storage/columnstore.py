"""Columnar binary storage with block zone maps (the "DBMS X" profile).

Each column lives in its own ``.npy`` file of values, plus one of null
flags when it holds a NULL (no file: no NULLs).  A TEXT column's values
are int32 codes into its *file dictionary*, saved beside them as one
UTF-8 blob (``.dict.npy``) and each string's end offset in it
(``.dictends.npy``): in the column's sorted order when it is written,
with the strings an append brings added at the end — so an append
writes only the tail's codes and its new strings, and a read maps file
codes to sorted codes with one gather (the dictionary itself is
decoded and sorted once per mapping).  At load time the
engine additionally builds *zone maps* — per-block min / max / NULL
count of every INTEGER, FLOAT and DATE column — which lets scans with
pushed range/equality predicates skip whole blocks.  This is the extra
"tuning" work that makes the commercial contestant's initialization
slower and its scans faster, producing the race dynamics the demo
stages.

The zone maps are the engine's shared synopses
(:class:`repro.core.synopsis.Synopsis`): the same builder, with
``ZONE_BLOCK_ROWS``-row blocks here and the scan's ``batch_size`` for
the columns the columnstore tier promotes (:mod:`repro.storage.vertical`).
They are held in memory beside the mapped files, and :meth:`extend`
re-derives only the tail block.
"""

from __future__ import annotations

import io
import itertools
import os
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from numpy.lib import format as npy

from ..batch import Batch, ColumnVector
from ..catalog.schema import TableSchema
from ..core.metrics import BreakdownComponent, QueryMetrics
from ..core.synopsis import Synopsis
from ..datatypes import DataType
from ..errors import StorageError

_IO = BreakdownComponent.IO

#: Rows per zone-map block.
ZONE_BLOCK_ROWS = 4096


class ColumnStoreTable:
    """A loaded table stored column-at-a-time with zone maps."""

    def __init__(
        self,
        directory: Path,
        schema: TableSchema,
        zone_maps: dict[str, Synopsis] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        self._nulls: dict[str, np.ndarray | None] = {}
        #: Column -> its zone map (the summarized types only).
        self.zone_maps: dict[str, Synopsis] = dict(zone_maps or {})
        self._num_rows: int | None = None
        #: File -> (dtype, offset of the data) of the array saved in it;
        #: neither changes while the file lives.
        self._layouts: dict[Path, tuple[np.dtype, int]] = {}
        #: TEXT column -> its decoded file dictionary (see
        #: :meth:`_dictionary`).
        self._dictionaries: dict[str, _FileDictionary] = {}

    # ------------------------------------------------------------------
    # Loading.
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        schema: TableSchema,
        columns: dict[str, ColumnVector],
        zone_rows: int | None = ZONE_BLOCK_ROWS,
    ) -> "ColumnStoreTable":
        """Save ``columns`` under ``directory``; with ``zone_rows``, zone
        maps in blocks of that many rows are built too."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = schema.names()
        missing = [n for n in names if n not in columns]
        if missing:
            raise StorageError(f"missing columns at load time: {missing}")
        n_rows = len(columns[names[0]]) if names else 0

        zones: dict[str, Synopsis] = {}
        for column in schema:
            vec = columns[column.name]
            if len(vec) != n_rows:
                raise StorageError(
                    f"column {column.name!r} has {len(vec)} rows, "
                    f"expected {n_rows}"
                )
            np.save(directory / f"{column.name}.values.npy", vec.values)
            if vec.dtype is DataType.TEXT:
                blob, ends = _encode_strings(vec.dictionary.tolist())
                np.save(directory / f"{column.name}.dict.npy", blob)
                np.save(directory / f"{column.name}.dictends.npy", ends)
            if vec.null_mask.any():
                np.save(
                    directory / f"{column.name}.nulls.npy",
                    np.ascontiguousarray(vec.null_mask),
                )
            if zone_rows is not None:
                zone_map = Synopsis.of(vec, zone_rows)
                if zone_map is not None:
                    zones[column.name] = zone_map
        return cls(directory, schema, zones)

    def extend(
        self,
        columns: dict[str, ColumnVector],
        admit: Callable[[int], bool] = lambda nbytes: True,
    ) -> int:
        """Append rows to every column in O(appended) bytes.

        Values (and null flags, for a column that has its file) go onto
        the end of the existing files; a column's flags file is written
        out whole the first time a NULL arrives.  ``admit`` is asked
        once for the bytes about to be added, the zone maps' growth
        included; each zone map re-derives its tail block.  A TEXT
        column's new strings go onto the end of its file dictionary and
        the tail's codes are mapped into it.  Returns those bytes — or
        0, with nothing written, when it refuses.
        """
        lengths = {len(columns[column.name]) for column in self.schema}
        if len(lengths) != 1:
            raise StorageError(f"ragged extension: lengths {sorted(lengths)}")
        n_rows = self.num_rows
        #: (file, rows to append, rows it holds).
        appends: list[tuple[Path, np.ndarray, int]] = []
        saves: list[tuple[Path, bytes]] = []
        for column in self.schema:
            vec = columns[column.name]
            values_path = self.directory / f"{column.name}.values.npy"
            values = vec.values
            if vec.dtype is DataType.TEXT:
                values = self._file_codes(column.name, vec, appends)
            appends.append((values_path, values, n_rows))
            nulls_path = self.directory / f"{column.name}.nulls.npy"
            if nulls_path.exists():
                appends.append((nulls_path, vec.null_mask, n_rows))
            elif vec.null_mask.any():
                flags = io.BytesIO()
                np.save(
                    flags,
                    np.concatenate(
                        [np.zeros(n_rows, dtype=np.bool_), vec.null_mask]
                    ),
                )
                saves.append((nulls_path, flags.getvalue()))
        zones = {
            name: zone_map.extended(columns[name])
            for name, zone_map in self.zone_maps.items()
        }
        added = sum(tail.nbytes for __, tail, __ in appends)
        added += sum(len(payload) for __, payload in saves)
        added += _zone_bytes(zones) - self.zone_bytes()
        if not admit(added):
            return 0
        for path, tail, n_old in appends:
            _append_npy(path, tail, n_old, self._layout(path)[1])
        for path, payload in saves:
            path.write_bytes(payload)
        # The mapped arrays end at the old row count.
        self._columns.clear()
        self._nulls.clear()
        self._dictionaries.clear()
        self.zone_maps = zones
        self._num_rows = n_rows + lengths.pop()
        return added

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

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

    def zone_map(self, column: str) -> Synopsis | None:
        """The zone map of ``column``, if one was built."""
        return self.zone_maps.get(column)

    def zone_bytes(self) -> int:
        """Bytes the zone maps hold (in memory, beside the files)."""
        return _zone_bytes(self.zone_maps)

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
                if self.schema.dtype_of(name) is DataType.TEXT:
                    self._dictionary(name)

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
        if dtype is not DataType.TEXT:
            return ColumnVector(dtype, np.ascontiguousarray(raw), nul)
        strings = self._dictionary(name)
        codes = raw if strings.rank is None else strings.rank[raw]
        return ColumnVector(
            dtype, np.ascontiguousarray(codes), nul, strings.sorted
        )

    def _dictionary(self, name: str) -> "_FileDictionary":
        """The file dictionary of TEXT column ``name``, decoded."""
        strings = self._dictionaries.get(name)
        if strings is None:
            blob = np.load(self.directory / f"{name}.dict.npy")
            ends = np.load(self.directory / f"{name}.dictends.npy")
            strings = _FileDictionary(_decode_strings(blob, ends), len(blob))
            self._dictionaries[name] = strings
        return strings

    def _file_codes(
        self,
        name: str,
        vec: ColumnVector,
        appends: list[tuple[Path, np.ndarray, int]],
    ) -> np.ndarray:
        """``vec``'s codes as codes of the column's file dictionary;
        strings it does not hold yet are queued onto ``appends``."""
        strings = self._dictionary(name)
        index = strings.index
        texts = vec.dictionary.tolist()
        known = np.fromiter(
            map(index.get, texts, itertools.repeat(-1)), np.int64, len(texts)
        )
        fresh = [t for t, code in zip(texts, known.tolist()) if code < 0]
        if fresh:
            known[known < 0] = len(index) + np.arange(len(fresh))
            blob, ends = _encode_strings(fresh)
            held = strings.blob_bytes
            appends.append((self.directory / f"{name}.dict.npy", blob, held))
            ends_path = self.directory / f"{name}.dictends.npy"
            appends.append((ends_path, ends + held, len(index)))
        if not len(known):
            return np.zeros(len(vec), dtype=np.int32)
        return known.astype(np.int32)[vec.values]

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


class _FileDictionary:
    """A TEXT column's file dictionary, decoded: the strings in file
    order (``index``: string -> file code; ``blob_bytes`` of UTF-8),
    the sorted dictionary and
    ``rank`` mapping file codes to sorted ones (``None``: the file order
    is sorted already)."""

    def __init__(self, strings: list[str], blob_bytes: int) -> None:
        self.blob_bytes = blob_bytes
        self.index = {text: code for code, text in enumerate(strings)}
        encoded = ColumnVector.from_texts(strings)
        self.sorted = encoded.dictionary
        rank = encoded.values
        sorted_already = bool((rank == np.arange(len(rank))).all())
        self.rank = None if sorted_already else rank


def _encode_strings(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as one UTF-8 blob and each one's end offset in it."""
    encoded = [text.encode("utf-8") for text in strings]
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    ends = np.cumsum(np.fromiter(map(len, encoded), np.int64, len(encoded)))
    return blob, ends


def _decode_strings(blob: np.ndarray, ends: np.ndarray) -> list[str]:
    data = blob.tobytes()
    starts = [0, *ends[:-1].tolist()]
    return [data[a:b].decode("utf-8") for a, b in zip(starts, ends.tolist())]


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


def _zone_bytes(zones: dict[str, Synopsis]) -> int:
    return sum(zone_map.nbytes for zone_map in zones.values())
