"""Tokenizing raw CSV bytes.

Tokenizing — locating field boundaries inside each tuple — is the
dominant CPU cost of in-situ querying and the thing the adaptive
positional map exists to avoid.  This module provides:

* :func:`build_line_index` — tuple (line) boundaries of a byte range;
* :func:`tokenize_span` — **selective tokenizing**: scan each tuple
  only up to the last attribute a query needs ("opportunistically
  aborting tokenizing tuples as soon as the required attributes for a
  query have been found").  It is the one scalar tokenizer, an
  RFC-4180 state machine, for the dialects the vectorized
  :class:`repro.kernels.ScanKernel` does not serve (quoting, or a
  non-ASCII delimiter); the kernel is tested against it;
* :func:`extract_field` / :func:`extract_fields_between` — direct field
  extraction once the positional map supplies start offsets, i.e. the
  "jump directly to the correct position" path.

Every offset, in and out, is a **byte offset into the raw file**.  The
functions work on ``data``, the bytes of the file range that starts at
file offset ``base`` (0 when ``data`` is the whole file).  Field ``j``
of a row occupies ``[starts[j], starts[j + 1] - len(delimiter))`` where
``starts[last + 1]`` is a uniform end sentinel (the field's end plus
one delimiter width, whether a delimiter or the newline closed it).
Bytes become ``str`` only when a field is extracted — strictly UTF-8,
so an undecodable byte fails the one field that holds it
(:func:`decode_fields`), never the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RawDataError
from .dialect import CsvDialect

_BOM = b"\xef\xbb\xbf"
_LF = 0x0A
_CR = 0x0D


def build_line_index(
    data: bytes, has_header: bool = False, base: int = 0
) -> np.ndarray:
    """Boundary array of the data tuples in ``data``.

    Returns ``bounds`` of length ``n_rows + 1`` with ``bounds[i]`` the
    file offset of row ``i``'s first byte and ``bounds[i + 1] - 1`` one
    past its last (i.e. the position of its ``\n``, or end-of-data for
    an unterminated final line; a ``\r`` before the ``\n`` is trimmed
    per record by :func:`trim_cr`, not here).  A header line, when
    present, is excluded, and so is a UTF-8 byte-order mark at the very
    start of the file.  This array is the positional map's backbone
    ("tuple start" positions); its memory is pinned, not subject to LRU.
    """
    first = len(_BOM) if base == 0 and data.startswith(_BOM) else 0
    size = len(data)
    if size == first:
        return np.full(1, base + first, dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == _LF)
    # Row starts: the first byte plus one past each newline (dropping a
    # trailing one).
    starts = np.empty(len(newlines) + 1, dtype=np.int64)
    starts[0] = first
    starts[1:] = newlines + 1
    if starts[-1] >= size:  # data ends with a newline
        starts = starts[:-1]
        ends = newlines
    else:
        ends = np.append(newlines, size)
    if has_header:
        starts = starts[1:]
        ends = ends[1:]
    bounds = np.empty(len(starts) + 1, dtype=np.int64)
    if len(starts):
        bounds[:-1] = starts
        bounds[-1] = ends[-1] + 1
    else:
        # No data rows: the boundary is where the first row would
        # start — one past the header's newline, which is the data's
        # size when the header line is terminated (matching the
        # non-empty convention of bounds[-1] = last newline + 1).  An
        # append resumes tokenizing from this offset, so overshooting
        # by one here would eat the first byte of the first appended
        # row.
        bounds[0] = size if data.endswith(b"\n") else size + 1
    bounds += base
    return bounds


def has_crlf(data: bytes) -> bool:
    """Does ``data`` hold a CRLF line end?  One ``memchr`` for ``\r``
    settles it for LF files; the two-byte search costs ~1 ms per MB."""
    return b"\r" in data and b"\r\n" in data


def trim_cr(
    buf: np.ndarray,
    row_starts: np.ndarray,
    line_ends: np.ndarray,
    base: int = 0,
) -> np.ndarray:
    """Record ends with the ``\r`` of a CRLF terminator trimmed.

    ``buf`` is the ``uint8`` view of the bytes starting at file offset
    ``base``; at most one ``\r`` is trimmed per record, so LF and CRLF
    records may mix freely in one file.
    """
    if not len(buf):
        return line_ends
    last = np.maximum(line_ends - 1 - base, 0)
    return line_ends - ((line_ends > row_starts) & (buf[last] == _CR))


def decode_fields(raws: list[bytes], starts) -> list[str]:
    """The extracted fields as text (strict UTF-8).

    ``starts[i]`` is the file offset of field ``i``; the first field
    that does not decode is reported by it.
    """
    try:
        return list(map(bytes.decode, raws))
    except UnicodeDecodeError:
        for raw, start in zip(raws, starts):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise RawDataError(
                    f"field at byte offset {int(start)} is not valid "
                    f"UTF-8: {raw!r}",
                    offset=int(start),
                ) from None
        raise


@dataclass
class TokenizedRows:
    """Field boundaries (and raw bytes) for a tokenized span of rows.

    ``offsets[r, j]`` is the file offset where attribute
    ``first_attr + j`` starts; the final column is the uniform end
    sentinel (see the module docs).  ``fields[r][j]`` holds the bytes
    of attribute ``first_attr + j`` (quotes already removed) — a free
    by-product of scalar tokenizing, decoded on demand by
    :meth:`texts_of`.
    """

    first_attr: int
    last_attr: int
    offsets: np.ndarray
    fields: list[list[bytes]]

    @property
    def num_rows(self) -> int:
        return len(self.fields)

    def texts_of(self, attr: int, rows: list[int] | None = None) -> list[str]:
        """Text of ``attr`` for every row, or just for ``rows``."""
        j = attr - self.first_attr
        fields = self.fields
        if rows is None:
            return decode_fields(
                [row[j] for row in fields], self.offsets[:, j]
            )
        return decode_fields(
            [fields[r][j] for r in rows], self.offsets[rows, j]
        )


def tokenize_span(
    data: bytes,
    field_starts: np.ndarray,
    line_ends: np.ndarray,
    first_attr: int,
    last_attr: int,
    n_attrs: int,
    dialect: CsvDialect,
    base: int = 0,
    first_row: int = 0,
) -> TokenizedRows:
    """Tokenize attributes ``first_attr .. last_attr`` of a set of rows.

    ``field_starts[r]`` must be the file offset where attribute
    ``first_attr`` begins in row ``r`` (a positional-map anchor, or the
    row start when ``first_attr == 0``); ``line_ends[r]`` is the
    exclusive end of the row's bytes (its newline, CR-trimmed).  This
    is **selective tokenizing**: fields are split out only up to
    ``last_attr`` and never before the anchor.  Quoted fields follow
    RFC-4180 (doubled-quote escapes); an unquoted dialect is the same
    machine with no quote to open.  A row with the wrong number of
    fields raises :func:`field_count_error`, as the kernel does, also
    when the span stops early: the rest of the row is counted (one
    ``bytes.count`` when it holds no quote), so what a row answers
    never depends on which columns a query reads.  Rows are counted
    from table row ``first_row``.
    """
    if last_attr >= n_attrs or first_attr > last_attr:
        raise RawDataError(
            f"bad attribute span {first_attr}..{last_attr} for "
            f"{n_attrs}-attribute schema"
        )
    span = last_attr - first_attr
    # Fields a well-formed row holds from ``first_attr`` on.
    width = n_attrs - first_attr
    delim, quote = dialect.delimiter_bytes, dialect.quote_bytes
    # Tokenized relative to ``data``; shifted to file offsets at the end.
    offsets = np.empty((len(field_starts), span + 2), dtype=np.int64)
    starts_list = (np.asarray(field_starts) - base).tolist()
    ends_list = (np.asarray(line_ends) - base).tolist()
    fields_out: list[list[bytes]] = []

    for r, (pos, line_end) in enumerate(zip(starts_list, ends_list)):
        row_fields: list[bytes] = []
        row_offsets = offsets[r]
        for j in range(span + 1):
            if pos > line_end:
                raise field_count_error(first_row + r, j, width, first_attr)
            row_offsets[j] = pos
            raw, pos = _scan_quoted_field(
                data, pos, line_end, delim, quote, base
            )
            row_fields.append(raw)
        row_offsets[span + 1] = pos
        found = span + 1
        if pos <= line_end:  # fields remain after ``last_attr``
            found += _count_fields(data, pos, line_end, delim, quote, base)
        if found != width:
            raise field_count_error(first_row + r, found, width, first_attr)
        fields_out.append(row_fields)
    offsets += base
    return TokenizedRows(first_attr, last_attr, offsets, fields_out)


def _count_fields(
    data: bytes,
    pos: int,
    line_end: int,
    delim: bytes,
    quote: bytes | None,
    base: int = 0,
) -> int:
    """Fields in ``data[pos:line_end]``, the rest of a row.

    Delimiters separate fields up to the next field that opens with a
    quote; only such a field runs through the state machine.
    """
    found = 0
    while True:
        if quote and data.startswith(quote, pos, line_end):
            closing = _closing_quote(data, pos, line_end, quote, base)
            pos = closing + len(quote) + len(delim)
            found += 1
            if pos > line_end:
                return found
            continue
        opens = -1 if not quote else data.find(delim + quote, pos, line_end)
        if opens == -1:
            return found + data.count(delim, pos, line_end) + 1
        found += data.count(delim, pos, opens) + 1
        pos = opens + len(delim)


def field_count_error(
    row: int, found: int, width: int, first_attr: int
) -> RawDataError:
    """The error for a row holding ``found`` of its ``width`` fields
    from ``first_attr`` on — the same text whichever span found it."""
    return RawDataError(
        f"row {row}: expected {width} fields from attribute "
        f"{first_attr}, found {found}",
        row=row,
    )


def _scan_quoted_field(
    data: bytes,
    start: int,
    line_end: int,
    delim: bytes,
    quote: bytes | None,
    base: int = 0,
) -> tuple[bytes, int]:
    """Scan one possibly-quoted field; return (bytes, next_field_start).

    Positions are relative to ``data``; ``base`` only names the file
    offset in the error.  ``quote`` is ``None`` for unquoted dialects.
    """
    if quote and start < line_end and data.startswith(quote, start):
        q = len(quote)
        closing = _closing_quote(data, start, line_end, quote, base)
        raw = data[start + q : closing].replace(quote + quote, quote)
        return raw, closing + q + len(delim)
    end = data.find(delim, start, line_end)
    if end == -1:
        end = line_end
    return data[start:end], end + len(delim)


def _closing_quote(
    data: bytes, start: int, line_end: int, quote: bytes, base: int = 0
) -> int:
    """Where the quoted field opening at ``start`` closes (doubled
    quotes are escapes)."""
    q = len(quote)
    pos = start + q
    while True:
        closing = data.find(quote, pos, line_end)
        if closing == -1:
            raise RawDataError(
                f"unterminated quote at offset {start + base}",
                offset=start + base,
            )
        if not data.startswith(quote, closing + q, line_end):
            return closing
        pos = closing + 2 * q


def extract_field(
    data: bytes,
    start: int,
    line_end: int,
    dialect: CsvDialect,
    base: int = 0,
) -> str:
    """Positional-map jump: read one field given its start offset."""
    lo, hi = start - base, line_end - base
    delim, quote = dialect.delimiter_bytes, dialect.quote_bytes
    if quote is None or not data.startswith(quote, lo):
        end = data.find(delim, lo, hi)
        raw = data[lo : hi if end == -1 else end]
    else:
        raw, __ = _scan_quoted_field(data, lo, hi, delim, quote, base)
    try:
        return raw.decode()
    except UnicodeDecodeError:
        return decode_fields([raw], [start])[0]  # raises, naming start


def extract_fields_between(
    data: bytes,
    starts: np.ndarray,
    next_starts: np.ndarray,
    dialect: CsvDialect,
    base: int = 0,
) -> list[str]:
    """Vectorized extraction when the map also knows the *next* field.

    ``next_starts[i]`` minus one delimiter width is the end of field
    ``i``, so no scanning is needed at all — the fastest map path.
    """
    step = len(dialect.delimiter_bytes)
    raws = [
        data[a:b]
        for a, b in zip(
            (starts - base).tolist(), (next_starts - step - base).tolist()
        )
    ]
    if dialect.quoting:
        quote = dialect.quote_bytes
        q = len(quote)
        raws = [
            raw[q:-q].replace(quote + quote, quote)
            if raw.startswith(quote) and raw.endswith(quote)
            else raw
            for raw in raws
        ]
    return decode_fields(raws, starts)
