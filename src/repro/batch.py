"""Vectorized data containers flowing between operators.

The executor is a block-at-a-time (vectorized) Volcano engine: every
operator consumes and produces :class:`Batch` objects, which map column
names to :class:`ColumnVector` values.  The raw-data scan operator emits
the same batches as the conventional heap/column scans, which is the
paper's architectural point — everything above the scan is unchanged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .datatypes import DataType, convert_column
from .errors import ExecutionError


#: The dictionary of a TEXT vector with no non-NULL value.
_NO_STRINGS = np.empty(0, dtype=object)


@dataclass
class ColumnVector:
    """One column's binary values for a batch of rows.

    ``values`` follows the dtype's numpy representation (see
    :mod:`repro.datatypes`); ``null_mask`` is ``True`` where the value is
    SQL NULL.  The pair is immutable by convention — operators build new
    vectors rather than mutating inputs.

    TEXT is dictionary-encoded: ``values`` holds ``int32`` codes into
    ``dictionary``, an object array of distinct ``str`` sorted in
    Python (code point) order — so comparing codes compares strings,
    as sqlite's BINARY collation does.  A NULL row's code is 0 (any
    valid code; the mask decides).  A vector built by a producer
    (:meth:`from_texts`, the kernel's ``convert_span``) holds exactly
    the strings its rows use; one derived by :meth:`filter`,
    :meth:`take` or :meth:`slice` shares its source's dictionary, so
    it may hold strings no row uses (:meth:`narrowed` drops them where
    work runs per dictionary entry).  Vectors over different
    dictionaries meet through :func:`unify_dictionaries`.
    """

    dtype: DataType
    values: np.ndarray
    null_mask: np.ndarray
    dictionary: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.values) != len(self.null_mask):
            raise ExecutionError(
                "values/null_mask length mismatch: "
                f"{len(self.values)} != {len(self.null_mask)}"
            )
        if self.dtype is DataType.TEXT:
            if self.values.dtype.kind not in "iu":
                raise ExecutionError("TEXT values must be dictionary codes")
            if self.dictionary is None:
                self.dictionary = _NO_STRINGS

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
        if dtype is DataType.TEXT:
            return cls.from_texts(items)
        # One C-level pass each, no Python per element.
        objects = np.empty(len(items), dtype=object)
        objects[:] = items
        mask = np.equal(objects, None).astype(np.bool_)
        values = np.zeros(len(items), dtype=dtype.numpy_dtype)
        valid = ~mask
        values[valid] = objects[valid].astype(dtype.numpy_dtype)
        return cls(dtype, values, mask)

    @classmethod
    def from_texts(cls, texts: list, null: object = None) -> "ColumnVector":
        """The scalar TEXT constructor: a list of ``str`` (``null`` —
        ``None``, or a dialect's null token — marks a NULL row).

        C-driven passes only: a ``set`` of the strings, sorted (only the
        distinct strings are), then one dict lookup per row.
        """
        distinct = set(texts)
        distinct.discard(null)
        dictionary = np.empty(len(distinct), dtype=object)
        dictionary[:] = sorted(distinct)
        index = {text: code for code, text in enumerate(dictionary.tolist())}
        index[null] = -1
        codes = np.fromiter(
            map(index.__getitem__, texts), np.int32, len(texts)
        )
        mask = codes < 0
        codes[mask] = 0
        return cls(DataType.TEXT, codes, mask, dictionary)

    @classmethod
    def from_fields(
        cls,
        texts: list[str],
        dtype: DataType,
        null_token: str = "",
        row_offset: int | np.ndarray = 0,
    ) -> "ColumnVector":
        """The scalar "Convert" of raw field texts, ``convert_span``'s
        twin (``null_token`` marks NULL; ``row_offset`` numbers a
        malformed field's row: :func:`repro.datatypes.row_number`)."""
        if dtype is DataType.TEXT:
            return cls.from_texts(texts, null_token)
        values, mask = convert_column(texts, dtype, null_token, row_offset)
        return cls(dtype, values, mask)

    def _derived(self, values: np.ndarray, mask: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.dtype, values, mask, self.dictionary)

    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by position (join/sort/filter materialization)."""
        return self._derived(self.values[indices], self.null_mask[indices])

    def filter(self, keep: np.ndarray) -> "ColumnVector":
        """Keep rows where ``keep`` is True."""
        return self._derived(self.values[keep], self.null_mask[keep])

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return self._derived(
            self.values[start:stop], self.null_mask[start:stop]
        )

    def narrowed(self) -> "ColumnVector":
        """This TEXT vector over only the strings its rows use, when its
        dictionary holds more strings than it has rows (a few rows of a
        larger column): what runs once per dictionary entry then runs
        at most once per row.  Any other vector is returned as is."""
        if self.dictionary is None or len(self.dictionary) <= len(self):
            return self
        used, codes = np.unique(self.values, return_inverse=True)
        return ColumnVector(
            self.dtype,
            codes.astype(np.int32),
            self.null_mask,
            self.dictionary[used],
        )

    def compacted(self) -> "ColumnVector":
        """A copy holding nothing its rows do not use — fresh arrays
        and, for TEXT, exactly the strings its non-NULL rows use (NULL
        rows at code 0): the vector a producer builds from the same
        fields, for one :meth:`slice` cut from a larger vector."""
        mask = self.null_mask.copy()
        if self.dtype is not DataType.TEXT:
            return ColumnVector(self.dtype, self.values.copy(), mask)
        live = ~mask
        used, codes = np.unique(self.values[live], return_inverse=True)
        values = np.zeros(len(mask), dtype=np.int32)
        values[live] = codes
        return ColumnVector(self.dtype, values, mask, self.dictionary[used])

    def to_pylist(self) -> list[object]:
        """Python objects with ``None`` for NULLs (result materialization)."""
        # ``tolist`` already yields int / float / bool / str per the
        # dtype's numpy representation; only NULL slots need patching.
        if self.dtype is DataType.TEXT:
            if not len(self.dictionary):
                return [None] * len(self)
            out = self.dictionary[self.values].tolist()
        else:
            out = self.values.astype(self.dtype.numpy_dtype, copy=False)
            out = out.tolist()
        for i in np.flatnonzero(self.null_mask).tolist():
            out[i] = None
        return out

    def nbytes(self) -> int:
        """Heap footprint, used for cache budget accounting: for TEXT
        the codes, the mask, the dictionary's slots and each distinct
        string's own ``sys.getsizeof``."""
        total = self.values.nbytes + self.null_mask.nbytes
        if self.dtype is DataType.TEXT:
            total += self.dictionary.nbytes
            total += sum(map(sys.getsizeof, self.dictionary.tolist()))
        return total

    @staticmethod
    def concat(parts: list["ColumnVector"]) -> "ColumnVector":
        if not parts:
            raise ExecutionError("cannot concat zero column vectors")
        dtype = parts[0].dtype
        if any(p.dtype is not dtype for p in parts):
            raise ExecutionError("cannot concat vectors of different types")
        mask = np.concatenate([p.null_mask for p in parts])
        if dtype is not DataType.TEXT:
            return ColumnVector(
                dtype, np.concatenate([p.values for p in parts]), mask
            )
        dictionary, remaps = unify_dictionaries([p.dictionary for p in parts])
        codes = np.concatenate(
            [recode(p.values, remap) for p, remap in zip(parts, remaps)]
        )
        return ColumnVector(dtype, codes, mask, dictionary)


def unify_dictionaries(
    dictionaries: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """One sorted dictionary over several, and per input the remap of
    its codes into it (``None``: its codes stand as they are).

    Each dictionary is merged into the first by binary search, so a
    dictionary whose strings are all known already (the batches of one
    column) costs a search per string and changes nothing.
    """
    merged = dictionaries[0]
    remaps: list[np.ndarray | None] = [None]
    for dictionary in dictionaries[1:]:
        if dictionary is merged:
            remaps.append(None)
            continue
        merged, shift, remap = _merge_sorted(merged, dictionary)
        if shift is not None:
            remaps = [shift if r is None else shift[r] for r in remaps]
        remaps.append(remap)
    return merged, remaps


def _merge_sorted(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Sorted union of two sorted dictionaries: ``(merged, remap of
    a's codes or None when they stand, remap of b's codes)``."""
    pos = np.searchsorted(a, b)
    hit = pos < len(a)
    hit[hit] = a[pos[hit]] == b[hit]
    if hit.all():
        return a, None, pos.astype(np.int32)
    new = np.flatnonzero(~hit)
    at = pos[new]
    merged = np.insert(a, at, b[new])
    # An old string moves right by the new strings inserted before it.
    shift = np.arange(len(a)) + np.searchsorted(at, np.arange(len(a)), "right")
    remap = np.empty(len(b), dtype=np.int64)
    remap[hit] = shift[pos[hit]]
    remap[new] = at + np.arange(len(new))
    return merged, shift.astype(np.int32), remap.astype(np.int32)


def recode(codes: np.ndarray, remap: np.ndarray | None) -> np.ndarray:
    """``codes`` through a :func:`unify_dictionaries` remap (a NULL row
    of an all-NULL vector keeps code 0)."""
    if remap is None:
        return codes
    if not len(remap):
        return np.zeros(len(codes), dtype=np.int32)
    return remap[codes]


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
