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
from ..rawio.tokenizer import TokenizedRows, decode_fields, field_count_error
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
        window ``cbuf``.  Produces the identical offsets matrix (and,
        on malformed input, the identical :class:`RawDataError`):
        per-row delimiter counts come from two ``searchsorted`` calls
        against the window's sorted delimiter positions, and one
        fancy-indexed gather fills every row's field starts at once.

        A JSONL kernel reads whole records (:mod:`repro.kernels.jsonl`)
        and returns ``None`` for a window only the scalar parser reads.
        """
        if self.keys is not None:
            return self._tokenize_records(cbuf, field_starts, line_ends)
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
