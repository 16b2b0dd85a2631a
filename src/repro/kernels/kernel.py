"""Scan kernels specialized per (dialect, schema, attribute-span).

A :class:`ScanKernel` tokenizes every unquoted dialect with an ASCII
delimiter.  In a regular window the sorted delimiter positions already
form a grid, one row per record, so the offsets matrix is a few column
slices of them instead of one scan per row; two ``searchsorted`` calls
and O(n) compares prove the grid first (:meth:`ScanKernel._row_grid`),
and a batch they do not prove returns ``None`` to the state machine.
Field texts are produced lazily (:class:`KernelRows`) only when a
consumer actually needs Python strings — INTEGER, FLOAT and TEXT
columns convert straight from the offsets (:mod:`repro.kernels.convert`;
TEXT decodes each distinct value once) and never build the per-row
string lists at all.

Quoted dialects and non-ASCII delimiters are not eligible: they run the
RFC-4180 state machine (:func:`repro.rawio.tokenizer.tokenize_span`),
the one scalar tokenizer.  :func:`kernel_supported` decides, per
dialect, and nothing else does; the state machine also reads, and
raises the errors of, every CSV batch the kernel returns ``None`` for.

A JSONL signature (``fmt="jsonl"``) dispatches to
:mod:`repro.kernels.jsonl`: it accepts windows of flat records that hold
exactly the schema's keys in one order, with no backslash and valid
UTF-8 (:class:`JsonKernelRows`), and map-jumped values that need no
escape decoding.  For anything else :meth:`ScanKernel.tokenize` and
:meth:`ScanKernel.field_ends` return ``None`` and the scan reads those
rows with :mod:`repro.formats.jsonl`'s scalar parser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datatypes import DataType
from ..formats.jsonl import token_text
from ..rawio.dialect import CsvDialect
from ..rawio.tokenizer import TokenizedRows, decode_fields
from .content import ContentBuffer
from .jsonl import tokenize_records, value_ends


def kernel_supported(dialect: CsvDialect) -> bool:
    """Kernel eligibility for a dialect.

    Quoting needs the state machine (a delimiter inside quotes is not a
    field boundary), and the byte-level masks assume a single-byte
    delimiter.
    """
    return not dialect.quoting and ord(dialect.delimiter) < 128


@dataclass(frozen=True)
class KernelSignature:
    """Identity of one specialized kernel (the :class:`KernelCache` key).

    ``dtypes`` is the full schema's column types — two tables sharing a
    dialect but not a schema must not share kernels once conversion is
    specialized further (and the tuple is cheap to hash).
    """

    delimiter: str
    null_token: str
    dtypes: tuple[DataType, ...]
    first_attr: int
    last_attr: int
    n_attrs: int
    #: Source format the kernel specializes (``"csv"`` or ``"jsonl"``).
    #: Only formats whose adapter reports ``kernel_eligible`` ever reach
    #: the cache, and the key carries the format so per-format
    #: specializations (per "Code Generation Techniques for Raw Data
    #: Processing") never collide.
    fmt: str = "csv"
    #: The schema's column names: a JSONL record's keys.
    names: tuple[str, ...] = ()


def make_signature(
    dialect: CsvDialect,
    dtypes: tuple[DataType, ...],
    first_attr: int,
    last_attr: int,
    fmt: str = "csv",
    names: tuple[str, ...] = (),
) -> KernelSignature:
    return KernelSignature(
        delimiter=dialect.delimiter,
        null_token=dialect.null_token,
        dtypes=dtypes,
        first_attr=first_attr,
        last_attr=last_attr,
        n_attrs=len(dtypes),
        fmt=fmt,
        names=names,
    )


class KernelRows(TokenizedRows):
    """:class:`TokenizedRows` whose field texts materialize lazily.

    The offsets matrix is the only product of tokenizing;
    :meth:`texts_of` slices and decodes the window's bytes on demand.
    """

    def __init__(
        self,
        first_attr: int,
        last_attr: int,
        offsets: np.ndarray,
        cbuf: ContentBuffer,
    ) -> None:
        self.first_attr = first_attr
        self.last_attr = last_attr
        self.offsets = offsets
        self.cbuf = cbuf

    @property
    def num_rows(self) -> int:
        return int(self.offsets.shape[0])

    def field_bounds(self, attr: int) -> tuple[np.ndarray, np.ndarray]:
        """File offsets where each row's ``attr`` field starts and ends."""
        j = attr - self.first_attr
        return self.offsets[:, j], self.offsets[:, j + 1] - 1

    def texts_of(self, attr: int, rows: list[int] | None = None) -> list[str]:
        data, base = self.cbuf.data, self.cbuf.base
        starts, ends = self.field_bounds(attr)
        if rows is not None:
            starts, ends = starts[rows], ends[rows]
        return decode_fields(
            [
                data[a:b]
                for a, b in zip(
                    (starts - base).tolist(), (ends - base).tolist()
                )
            ],
            starts,
        )


class JsonKernelRows(KernelRows):
    """:class:`KernelRows` of whole JSONL records: ``offsets`` holds each
    attribute's value start (and the scalar parser's end sentinel
    last), ``ends`` one past each value token."""

    def __init__(
        self,
        offsets: np.ndarray,
        ends: np.ndarray,
        cbuf: ContentBuffer,
        null_token: str,
    ) -> None:
        super().__init__(0, ends.shape[1] - 1, offsets, cbuf)
        self.ends = ends
        self.null_token = null_token

    def field_bounds(self, attr: int) -> tuple[np.ndarray, np.ndarray]:
        return self.offsets[:, attr], self.ends[:, attr]

    def texts_of(self, attr: int, rows: list[int] | None = None) -> list[str]:
        data, base = self.cbuf.data, self.cbuf.base
        starts, ends = self.field_bounds(attr)
        if rows is not None:
            starts, ends = starts[rows], ends[rows]
        null_token = self.null_token
        return [
            token_text(data[a - base : b - base], a, null_token)
            for a, b in zip(starts.tolist(), ends.tolist())
        ]


class ScanKernel:
    """One specialized scan kernel: vectorized tokenize + field ends."""

    __slots__ = ("signature", "span", "runs_to_line_end", "delimiter", "keys")

    def __init__(self, signature: KernelSignature) -> None:
        self.signature = signature
        self.span = signature.last_attr - signature.first_attr
        self.runs_to_line_end = signature.last_attr == signature.n_attrs - 1
        self.delimiter = signature.delimiter
        #: A JSONL kernel's record keys (UTF-8, in attribute order);
        #: ``None`` for CSV.
        self.keys = None
        if signature.fmt == "jsonl":
            self.keys = tuple(name.encode() for name in signature.names)

    def tokenize(
        self,
        cbuf: ContentBuffer,
        field_starts: np.ndarray,
        line_ends: np.ndarray,
    ) -> KernelRows | None:
        """Vectorized equivalent of ``tokenize_span`` for this signature.

        ``field_starts`` / ``line_ends`` are file offsets inside the
        window ``cbuf``.  Produces the identical offsets matrix, read
        off the window's delimiter grid (:meth:`_row_grid`), or returns
        ``None`` for rows the grid does not prove regular: the caller
        then runs the state machine, which raises the same
        :class:`RawDataError` on a malformed row as it always does.

        A JSONL kernel reads whole records (:mod:`repro.kernels.jsonl`)
        and returns ``None`` for a window only the scalar parser reads.
        """
        if self.keys is not None:
            return self._tokenize_records(cbuf, field_starts, line_ends)
        sig = self.signature
        span = self.span
        starts = np.ascontiguousarray(field_starts, dtype=np.int64)
        ends = np.ascontiguousarray(line_ends, dtype=np.int64)
        offsets = np.empty((len(starts), span + 2), dtype=np.int64)
        offsets[:, 0] = starts
        if len(starts) == 0:
            return KernelRows(sig.first_attr, sig.last_attr, offsets, cbuf)
        grid = self._row_grid(cbuf, starts, ends)
        if grid is None:
            return None
        if self.runs_to_line_end:
            np.add(grid[:, :span], 1, out=offsets[:, 1 : span + 1])
            np.add(ends, 1, out=offsets[:, span + 1])
        else:
            np.add(grid[:, : span + 1], 1, out=offsets[:, 1:])
        return KernelRows(sig.first_attr, sig.last_attr, offsets, cbuf)

    def _row_grid(
        self, cbuf: ContentBuffer, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray | None:
        """The window's delimiter positions from the first anchor as an
        ``(n, A - 1)`` grid, or ``None`` when it is not one.

        With ``A`` attributes and the span's first attribute ``F``, row
        ``r`` of a regular window holds its own ``A - 1 - F`` delimiters
        after its anchor, then the ``F`` of row ``r + 1`` before that
        row's anchor.  The grid is proved, not assumed:

        * the window holds exactly ``(n - 1)(A - 1) + A - 1 - F``
          delimiters from the first anchor to the last line end;
        * each row's own delimiters lie in ``[start, line_end)``;
        * the next row's leading ones lie between the two rows (for
          ``F = 0``, where there are none, the rows follow each other).

        Every delimiter in row ``r``'s range is then one of its own, so
        the grid's columns are the offsets' columns, minus one.  The
        last row's leading columns are padding, never read.
        """
        sig = self.signature
        width = sig.n_attrs - 1
        own = width - sig.first_attr
        n = len(starts)
        dpos = cbuf.byte_positions(self.delimiter)
        lo = int(np.searchsorted(dpos, starts[0]))
        hi = int(np.searchsorted(dpos, ends[-1]))
        if hi - lo != (n - 1) * width + own:
            return None
        stop = lo + n * width
        if stop <= len(dpos):
            grid = dpos[lo:stop]
        else:
            pad = np.zeros(stop - len(dpos), dtype=dpos.dtype)
            grid = np.concatenate([dpos[lo:], pad])
        grid = grid.reshape(n, width)
        if own and not (
            (grid[:, 0] >= starts).all() and (grid[:, own - 1] < ends).all()
        ):
            return None
        if sig.first_attr:
            lead, last = grid[:-1, own], grid[:-1, width - 1]
            if not ((lead >= ends[:-1]).all() and (last < starts[1:]).all()):
                return None
        elif not (starts[1:] > ends[:-1]).all():
            return None
        return grid

    def _tokenize_records(
        self,
        cbuf: ContentBuffer,
        record_starts: np.ndarray,
        line_ends: np.ndarray,
    ) -> JsonKernelRows | None:
        found = tokenize_records(self.keys, cbuf, record_starts, line_ends)
        if found is None:
            return None
        starts, ends = found
        offsets = np.empty((len(starts), len(self.keys) + 1), dtype=np.int64)
        offsets[:, :-1] = starts
        offsets[:, -1] = np.asarray(line_ends) + 1
        return JsonKernelRows(offsets, ends, cbuf, self.signature.null_token)

    def field_ends(
        self,
        cbuf: ContentBuffer,
        starts: np.ndarray,
        line_ends: np.ndarray,
    ) -> np.ndarray | None:
        """Each field's end: the first delimiter in [start, line_end).

        The positional-map jump path for an attribute whose successor
        is not mapped — the scalar path scans with ``bytes.find`` per
        row.  A JSONL kernel ends each value token by
        :func:`repro.kernels.jsonl.value_ends`; ``None`` leaves the
        rows to the scalar path.
        """
        if self.keys is not None:
            return value_ends(cbuf, starts, line_ends)
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        ends = np.ascontiguousarray(line_ends, dtype=np.int64)
        dpos = cbuf.byte_positions(self.delimiter)
        if len(dpos) == 0:
            return ends
        i = np.searchsorted(dpos, starts, side="left")
        cand = dpos[np.minimum(i, len(dpos) - 1)]
        return np.where((i < len(dpos)) & (cand < ends), cand, ends)
