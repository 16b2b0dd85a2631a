"""Vectorized text -> binary converters for the scan kernels.

Batch counterparts of :func:`repro.datatypes.convert_column` for
INTEGER and FLOAT columns, and of :meth:`ColumnVector.from_texts
<repro.batch.ColumnVector.from_texts>` for TEXT: whole column slices
are validated and parsed with numpy, and only the rows that fail the
fast validation fall back to the scalar converters — preserving the
legacy semantics (values, null handling, error messages, even the
exception cause chain) for every input the fast path cannot prove safe.

Fast-path coverage (everything else falls back to ``int()``/``float()``
per row):

* INTEGER — optional sign + 1..18 ASCII digits (int64-safe; no
  whitespace, underscores or unicode digits).
* FLOAT — optional sign + ASCII digits with at most one ``.`` and at
  most 15 digits total: the field parses as an exact int64 mantissa
  divided by an exact power of ten, and IEEE-754 division rounds that
  to the same double ``float(text)`` produces (the classic Clinger
  fast path).
* TEXT — every field: its bytes are gathered left-aligned into a
  fixed number of uint64 words (:func:`gather_width` bounds it; wider
  fields are sliced one by one), rows are factorized by a hash of their
  words and length — equal hashes are confirmed on the bytes — and each
  distinct field is decoded (strict UTF-8) once.
"""

from __future__ import annotations

import numpy as np

from ..batch import ColumnVector
from ..datatypes import DataType
from ..errors import ConversionError
from ..rawio.tokenizer import decode_fields

#: Exact powers of ten: 10**k fits int64 for k <= 18 and is an exactly
#: representable float64 for k <= 22.
_POW10_I = np.array([10**k for k in range(19)], dtype=np.int64)
_POW10_F = np.array([float(10**k) for k in range(23)], dtype=np.float64)

_MINUS = 0x2D
_PLUS = 0x2B
_DOT = 0x2E


def _sign_split(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strip an optional leading sign; return (neg, digit_starts, digit_lens)."""
    has = lengths > 0
    safe = np.minimum(starts, max(len(buf) - 1, 0))
    first = buf[safe]
    neg = has & (first == _MINUS)
    signed = neg | (has & (first == _PLUS))
    return neg, starts + signed, lengths - signed


def _gather_right_aligned(
    buf: np.ndarray, ends: np.ndarray, width: int
) -> np.ndarray:
    """(n, width) byte matrix, each field right-aligned to its end.

    Right alignment keeps each digit's power of ten a *per-column*
    constant (the Horner sweeps below need no per-row place matrix).
    Positions before a short field's start read earlier buffer bytes
    unmasked: whatever they contribute lands at decimal places >=
    ``10**dlens``, so one ``% 10**dlens`` per row recovers the exact
    field value — far cheaper than masking (n, width) cells.  Callers
    bound ``width`` so the garbage-polluted accumulator stays inside
    int64 (|sum| < 23 * 10**width since a byte term is in [-48, 207]).
    """
    # int32 offsets halve the index matrix's memory traffic (the
    # largest temporary here); they index one window of file bytes,
    # far below 2 GiB.
    base = (ends - width).astype(np.int32)
    idx = base[:, None] + np.arange(width, dtype=np.int32)
    np.maximum(idx, 0, out=idx)
    return buf[idx]


def parse_int64(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-parse int64 fields given byte bounds; returns (values, ok).

    Rows with ``ok`` False carry 0 and must be parsed by the caller's
    scalar fallback.  Fast path: optional sign + 1..17 ASCII digits
    (18+ digit fields fall back so the unmasked accumulator cannot
    overflow; see :func:`_gather_right_aligned`).
    """
    n = len(starts)
    values = np.zeros(n, dtype=np.int64)
    if n == 0:
        return values, np.zeros(0, dtype=np.bool_)
    lengths = ends - starts
    neg, __, dlens = _sign_split(buf, starts, lengths)
    ok = (dlens > 0) & (dlens <= 17)
    if not ok.any():
        return values, ok
    width = int(dlens[ok].max())
    chars = _gather_right_aligned(buf, ends, width)
    # uint8 wraparound turns "is an ASCII digit" into one comparison.
    isdig = (chars - np.uint8(48)) <= 9
    incol = np.arange(width, dtype=np.int64) >= (width - dlens)[:, None]
    ok &= ~np.any(incol & ~isdig, axis=1)
    magnitude = np.zeros(n, dtype=np.int64)
    for j in range(width):
        magnitude *= 10
        magnitude += chars[:, j]
        magnitude -= 48
    # Strip the out-of-field garbage above the field's own digits.
    magnitude %= _POW10_I[np.minimum(dlens, 18)]
    values = np.where(ok, np.where(neg, -magnitude, magnitude), 0)
    return values, ok


def parse_float64(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-parse float64 fields given byte bounds; returns (values, ok).

    Bit-identical to ``float(text)`` for every row it accepts: the
    mantissa (<= 15 digits) and the power of ten (<= 22) are both exact
    in float64, so the single division is correctly rounded.
    """
    n = len(starts)
    values = np.zeros(n, dtype=np.float64)
    if n == 0:
        return values, np.zeros(0, dtype=np.bool_)
    lengths = ends - starts
    neg, __, dlens = _sign_split(buf, starts, lengths)
    # <= 15 digits + one dot = at most 16 chars after the sign.
    ok = (dlens > 0) & (dlens <= 16)
    if not ok.any():
        return values, ok
    width = int(dlens[ok].max())
    chars = _gather_right_aligned(buf, ends, width)
    isdig = (chars - np.uint8(48)) <= 9
    incol = np.arange(width, dtype=np.int64) >= (width - dlens)[:, None]
    isdot = incol & (chars == _DOT)
    ok &= ~np.any(incol & ~(isdig | isdot), axis=1)
    dots = np.count_nonzero(isdot, axis=1)
    # Conditional on the all-digit-or-dot check, the digit count is
    # just the field length minus the dot count.
    ndigits = dlens - dots
    ok &= (dots <= 1) & (ndigits >= 1) & (ndigits <= 15)
    # Zero the dot cell by its known column, then run the *integer*
    # Horner sweep and repair dot rows in one vectorized step below
    # instead of branching per column.
    hasdot = dots > 0
    dotcol = np.argmax(isdot, axis=1)
    rows = np.flatnonzero(hasdot)
    chars[rows, dotcol[rows]] = 48
    horner = np.zeros(n, dtype=np.int64)
    for j in range(width):
        horner *= 10
        horner += chars[:, j]
        horner -= 48
    # For a row with ``frac`` digits after its dot, those digits occupy
    # the low ``frac`` decimal places of the Horner sum and the digits
    # before the dot sit one place too high (the dot consumed a
    # column).  Split at 10**frac, shift the high part down one place,
    # recombine, and strip the out-of-field garbage above the field's
    # own ``ndigits`` mantissa digits.
    frac = np.where(hasdot, width - 1 - dotcol, 0)
    post = horner % _POW10_I[frac]
    mantissa = np.where(hasdot, (horner - post) // 10 + post, horner)
    mantissa %= _POW10_I[np.minimum(dlens - hasdot, 18)]
    vals = mantissa.astype(np.float64) / _POW10_F[frac]
    vals = np.where(neg, -vals, vals)
    values = np.where(ok, vals, 0.0)
    return values, ok


#: A TEXT gather is never narrower than this many bytes, and a field
#: only counts as an outlier (sliced on its own) when it is longer than
#: both this and four times the batch's mean field length.
_GATHER_MIN_WIDTH = 32
#: Up to this many fields are decoded one by one and factorized by the
#: scalar constructor.
_SCALAR_ROWS = 384
_HASH_SEED = np.uint64(0x9E3779B97F4A7C15)
_HASH_MULT = np.uint64(0xBF58476D1CE4E5B9)


def gather_width(lengths: np.ndarray, longest: int) -> int:
    """Width (a multiple of 8 bytes) of the fixed-width TEXT gather of
    fields of ``lengths`` (``longest`` is their maximum).

    The longest field sizes it unless it is an outlier, so one very
    wide field cannot widen every row's cells; fields wider than the
    result are sliced one by one.
    """
    if longest > _GATHER_MIN_WIDTH:
        limit = max(_GATHER_MIN_WIDTH, 4 * int(lengths.mean()))
        if longest > limit:
            longest = int(lengths[lengths <= limit].max(initial=0))
    return max(8, -(-longest // 8) * 8)


#: Per count of a word's bytes inside a field, the mask keeping them
#: (little-endian: a word's first bytes are its low-order ones).
_BYTE_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


def _field_words(
    data: bytes, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """(n, width // 8) uint64 matrix: each field's bytes left-aligned
    from its start, eight per word, zeroed past its end (the length
    tells ``a`` from ``a\\x00``).

    Rows that would read past the last whole word of ``data`` are read
    again from a zero-padded copy of its last bytes.
    """
    n_words = width // 8
    held = np.frombuffer(data, "<u8", count=len(data) // 8)
    words = _words_at(held, starts, n_words)
    tail = np.flatnonzero(starts + (width + 8) > 8 * len(held))
    if len(tail):
        low = int(starts[tail].min()) // 8 * 8
        pad = data[low:] + bytes(width + 16)
        padded = np.frombuffer(pad, "<u8", count=len(pad) // 8)
        words[tail] = _words_at(padded, starts[tail] - low, n_words)
    shortest = int(lengths.min())
    for j in range(n_words):
        if shortest < 8 * (j + 1):  # some field ends inside word j
            inside = np.minimum(np.maximum(lengths - 8 * j, 0), 8)
            words[:, j] &= _BYTE_MASKS[inside]
    return words


def _words_at(held: np.ndarray, at: np.ndarray, n_words: int) -> np.ndarray:
    """The ``n_words`` unaligned words from byte ``at`` of the aligned
    words ``held``: word ``j`` is the two aligned words around
    ``at + 8j`` shifted together (numpy defines a 64-bit shift as 0).
    Indices past ``held`` are clipped; the caller re-reads those rows."""
    last = len(held) - 1
    index = at >> 3
    low_shift = ((at & 7) << 3).astype(np.uint64)
    high_shift = np.uint64(64) - low_shift
    words = np.zeros((len(at), n_words), dtype=np.uint64)
    if last < 0:  # no whole word: every row is re-read
        return words
    below = held[np.minimum(index, last)]
    for j in range(n_words):
        above = held[np.minimum(index + (j + 1), last)]
        words[:, j] = (below >> low_shift) | (above << high_shift)
        below = above
    return words


def _distinct_fields(
    data: bytes, starts: np.ndarray, lengths: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of ``np.unique`` over the fields' bytes:
    the first row of each distinct field, and each row's field."""
    words = _field_words(data, starts, lengths, width)
    hashes = lengths.astype(np.uint64) ^ _HASH_SEED
    for j in range(words.shape[1]):
        hashes ^= words[:, j]
        hashes *= _HASH_MULT
    hashes ^= hashes >> np.uint64(31)
    n = len(hashes)
    keys, inverse = np.unique(hashes, return_inverse=True)
    first = np.full(len(keys), n, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(n))
    rep = first[inverse]
    if not ((lengths[rep] == lengths).all() and (words[rep] == words).all()):
        # A hash collision: factorize on the bytes themselves.
        key = np.column_stack([words, lengths.astype(np.uint64)])
        __, first, inverse = np.unique(
            key, axis=0, return_index=True, return_inverse=True
        )
    return first, inverse.ravel()


def factorize_fields(
    data: bytes, starts: np.ndarray, ends: np.ndarray, base: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode the fields ``data[starts[i]:ends[i]]``.

    Returns ``(codes, dictionary)`` as a TEXT
    :class:`~repro.batch.ColumnVector` holds them.  Each distinct field
    is decoded once, strictly; the first field (in row order) that is
    not UTF-8 raises :class:`~repro.errors.RawDataError` naming its
    file offset (``starts + base``), exactly as decoding every field
    would.
    """
    n = len(starts)
    if n <= _SCALAR_ROWS:  # too few rows to pay for the numpy steps
        rows = np.arange(n)
        encoded = ColumnVector.from_texts(
            _decode_rows(data, starts, ends, rows, base)
        )
        return encoded.values, encoded.dictionary
    lengths = ends - starts
    longest = int(lengths.max())
    width = gather_width(lengths, longest)
    if longest > width:
        # Each wide field is a candidate of its own; the scalar
        # constructor below dedupes them.
        wide = lengths > width
        narrow = np.flatnonzero(~wide)
        wide = np.flatnonzero(wide)
        first, inverse = _distinct_fields(
            data, starts[narrow], lengths[narrow], width
        )
        rows = np.concatenate([narrow[first], wide])
        candidate = np.empty(n, dtype=np.intp)
        candidate[narrow] = inverse
        candidate[wide] = len(first) + np.arange(len(wide))
    else:
        rows, candidate = _distinct_fields(data, starts, lengths, width)
    encoded = ColumnVector.from_texts(
        _decode_rows(data, starts, ends, rows, base)
    )
    return encoded.values[candidate], encoded.dictionary


def _decode_rows(
    data: bytes,
    starts: np.ndarray,
    ends: np.ndarray,
    rows: np.ndarray,
    base: int,
) -> list[str]:
    """The fields of ``rows``, decoded (strict UTF-8).  On a bad field
    the one raised about is the bad field of the earliest row."""
    a, b = starts[rows].tolist(), ends[rows].tolist()
    raws = [data[x:y] for x, y in zip(a, b)]
    try:
        return list(map(bytes.decode, raws))
    except UnicodeDecodeError:
        order = np.argsort(rows, kind="stable")
        decode_fields(
            [raws[i] for i in order.tolist()], starts[rows[order]] + base
        )
        raise


def null_mask(
    buf: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    token: bytes,
) -> np.ndarray:
    """Rows whose raw bytes equal the encoded null token."""
    lengths = ends - starts
    width = len(token)
    if width == 0:
        return lengths == 0
    mask = lengths == width
    if mask.any():
        idx = starts[:, None] + np.arange(width, dtype=np.int64)[None, :]
        np.clip(idx, 0, max(len(buf) - 1, 0), out=idx)
        tok = np.frombuffer(token, dtype=np.uint8)
        mask &= np.all(buf[idx] == tok, axis=1)
    return mask


_PARSERS = {
    DataType.INTEGER: parse_int64,
    DataType.FLOAT: parse_float64,
}

_SCALARS = {DataType.INTEGER: int, DataType.FLOAT: float}


def convert_span(
    cbuf,
    starts: np.ndarray,
    ends: np.ndarray,
    dtype: DataType,
    null_token: str = "",
    row_offset: int = 0,
) -> ColumnVector:
    """Vectorized convert of one column slice given file-offset bounds.

    ``starts`` / ``ends`` lie inside the window ``cbuf``.  Drop-in for
    the scalar path over the same field texts (:func:`convert_column
    <repro.datatypes.convert_column>`, or :meth:`ColumnVector.from_texts
    <repro.batch.ColumnVector.from_texts>` for TEXT): same values, same
    null mask, and the same error (message, row, cause) on the first
    unconvertible row.  INTEGER, FLOAT and TEXT are supported — callers
    route BOOLEAN and DATE to the text path.
    """
    base = cbuf.base
    starts = np.ascontiguousarray(starts, dtype=np.int64) - base
    ends = np.ascontiguousarray(ends, dtype=np.int64) - base
    buf = cbuf.buf
    nulls = null_mask(buf, starts, ends, null_token.encode("utf-8"))
    live = np.flatnonzero(~nulls)
    if dtype is DataType.TEXT:
        codes = np.zeros(len(starts), dtype=np.int32)
        live_codes, dictionary = factorize_fields(
            cbuf.data, starts[live], ends[live], base
        )
        codes[live] = live_codes
        return ColumnVector(dtype, codes, nulls, dictionary)
    parser = _PARSERS[dtype]
    values = np.zeros(len(starts), dtype=dtype.numpy_dtype)
    if live.size:
        vals, ok = parser(buf, starts[live], ends[live])
        good = live[ok]
        values[good] = vals[ok]
        bad = live[~ok]
        if bad.size:
            data = cbuf.data
            convert = _SCALARS[dtype]
            slow_a = starts[bad].tolist()
            slow_b = ends[bad].tolist()
            texts = decode_fields(
                [data[a:b] for a, b in zip(slow_a, slow_b)],
                starts[bad] + base,
            )
            for i, t in zip(bad.tolist(), texts):
                try:
                    values[i] = convert(t)
                except (ValueError, ConversionError) as exc:
                    raise ConversionError(
                        f"row {row_offset + i}: cannot convert {t!r} "
                        f"to {dtype.value}",
                        row=row_offset + i,
                    ) from exc
    return ColumnVector(dtype, values, nulls)
