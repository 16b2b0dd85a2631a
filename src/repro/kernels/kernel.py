"""Scan kernels specialized per (dialect, schema, attribute-span).

A :class:`ScanKernel` tokenizes every unquoted dialect with an ASCII
delimiter: one ``searchsorted`` of the batch's row bounds against the
content's sorted delimiter positions plus a broadcast gather that
materializes the whole offsets matrix at once, instead of one scan per
row.  Field texts are produced lazily (:class:`KernelRows`) only when a
consumer actually needs Python strings — INTEGER, FLOAT and TEXT
columns convert straight from the offsets (:mod:`repro.kernels.convert`;
TEXT decodes each distinct value once) and never build the per-row
string lists at all.

Quoted dialects and non-ASCII delimiters are not eligible: they run the
RFC-4180 state machine (:func:`repro.rawio.tokenizer.tokenize_span`),
the one scalar tokenizer.  :func:`kernel_supported` decides, per
dialect, and nothing else does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datatypes import DataType
from ..rawio.dialect import CsvDialect
from ..rawio.tokenizer import TokenizedRows, decode_fields, field_count_error
from .content import ContentBuffer


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
    #: Source format the kernel specializes ("csv", ...).  Only formats
    #: whose adapter reports ``kernel_eligible`` ever reach the cache,
    #: but the key carries the format so per-format specializations
    #: (per "Code Generation Techniques for Raw Data Processing") never
    #: collide.
    fmt: str = "csv"


def make_signature(
    dialect: CsvDialect,
    dtypes: tuple[DataType, ...],
    first_attr: int,
    last_attr: int,
    fmt: str = "csv",
) -> KernelSignature:
    return KernelSignature(
        delimiter=dialect.delimiter,
        null_token=dialect.null_token,
        dtypes=dtypes,
        first_attr=first_attr,
        last_attr=last_attr,
        n_attrs=len(dtypes),
        fmt=fmt,
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

    def texts_of(self, attr: int, rows: list[int] | None = None) -> list[str]:
        j = attr - self.first_attr
        data, base = self.cbuf.data, self.cbuf.base
        rows = slice(None) if rows is None else rows
        starts = self.offsets[rows, j]
        ends = self.offsets[rows, j + 1] - 1
        return decode_fields(
            [
                data[a:b]
                for a, b in zip(
                    (starts - base).tolist(), (ends - base).tolist()
                )
            ],
            starts,
        )


class ScanKernel:
    """One specialized scan kernel: vectorized tokenize + field ends."""

    __slots__ = ("signature", "span", "runs_to_line_end", "delimiter")

    def __init__(self, signature: KernelSignature) -> None:
        self.signature = signature
        self.span = signature.last_attr - signature.first_attr
        self.runs_to_line_end = signature.last_attr == signature.n_attrs - 1
        self.delimiter = signature.delimiter

    def tokenize(
        self,
        cbuf: ContentBuffer,
        field_starts: np.ndarray,
        line_ends: np.ndarray,
    ) -> KernelRows:
        """Vectorized equivalent of ``tokenize_span`` for this signature.

        ``field_starts`` / ``line_ends`` are file offsets inside the
        window ``cbuf``.  Produces the identical offsets matrix (and,
        on malformed input, the identical :class:`RawDataError`):
        per-row delimiter counts come from two ``searchsorted`` calls
        against the window's sorted delimiter positions, and one
        fancy-indexed gather fills every row's field starts at once.
        """
        sig = self.signature
        span = self.span
        starts = np.ascontiguousarray(field_starts, dtype=np.int64)
        ends = np.ascontiguousarray(line_ends, dtype=np.int64)
        n = len(starts)
        offsets = np.empty((n, span + 2), dtype=np.int64)
        offsets[:, 0] = starts
        if n == 0:
            return KernelRows(sig.first_attr, sig.last_attr, offsets, cbuf)
        dpos = cbuf.byte_positions(self.delimiter)
        lo = np.searchsorted(dpos, starts, side="left")
        hi = np.searchsorted(dpos, ends, side="left")
        counts = hi - lo  # delimiters inside each row's segment
        bad = (
            counts != span
            if self.runs_to_line_end
            else counts < span + 1
        )
        if bad.any():
            r = int(np.argmax(bad))
            found = int(counts[r]) + 1
            raise field_count_error(
                r, found, span, sig.first_attr, self.runs_to_line_end
            )
        gather = span if self.runs_to_line_end else span + 1
        if gather:
            cols = lo[:, None] + np.arange(gather, dtype=np.int64)[None, :]
            offsets[:, 1 : gather + 1] = dpos[cols] + 1
        if self.runs_to_line_end:
            offsets[:, span + 1] = ends + 1
        return KernelRows(sig.first_attr, sig.last_attr, offsets, cbuf)

    def field_ends(
        self,
        cbuf: ContentBuffer,
        starts: np.ndarray,
        line_ends: np.ndarray,
    ) -> np.ndarray:
        """Each field's end: the first delimiter in [start, line_end).

        The positional-map jump path for an attribute whose successor
        is not mapped — the scalar path scans with ``bytes.find`` per
        row.
        """
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        ends = np.ascontiguousarray(line_ends, dtype=np.int64)
        dpos = cbuf.byte_positions(self.delimiter)
        if len(dpos) == 0:
            return ends
        i = np.searchsorted(dpos, starts, side="left")
        cand = dpos[np.minimum(i, len(dpos) - 1)]
        return np.where((i < len(dpos)) & (cand < ends), cand, ends)
