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

* INTEGER — optional sign + 1..16 ASCII digits (no whitespace,
  underscores or unicode digits).  Each field's last 16 bytes are read
  as two little-endian words, the bytes before its digits read as
  ``'0'``; two mask compares check that every byte is a digit and
  three multiply-shift-mask steps sum eight digits per word (SWAR).
  A field whose 16 bytes start before the window (8 for at most 8
  digits) falls back.
* FLOAT — optional sign + ASCII digits with at most one ``.`` and at
  most 15 digits total, read from the same two words, the dot found in
  them: the field parses as an exact int64 mantissa divided by an
  exact power of ten, and IEEE-754 division rounds that to the same
  double ``float(text)`` produces (the classic Clinger fast path).
* TEXT — every field: its bytes are gathered left-aligned into a
  fixed number of uint64 words (:func:`gather_width` bounds it; wider
  fields are sliced one by one), rows are factorized by a hash of their
  words and length — equal hashes are confirmed on the bytes — and each
  distinct field is decoded (strict UTF-8) once.
"""

from __future__ import annotations

import numpy as np

from ..batch import ColumnVector
from ..datatypes import DataType, row_number
from ..errors import ConversionError
from ..rawio.tokenizer import decode_fields

#: Exact powers of ten: 10**k fits int64 for k <= 18 and is an exactly
#: representable float64 for k <= 22.
_POW10_I = np.array([10**k for k in range(19)], dtype=np.int64)
_POW10_F = np.array([float(10**k) for k in range(23)], dtype=np.float64)

#: Per count ``k``, the mask of a word's first ``k`` bytes
#: (little-endian: a word's first bytes are its low-order ones).
_BYTE_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)

_MINUS = 0x2D
_PLUS = 0x2B
_QUOTE = 0x22


def _sign_split(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Strip an optional leading sign; return (neg, digit_lens)."""
    lengths = ends - starts
    if not len(buf):  # only empty fields
        return np.zeros(len(lengths), dtype=np.bool_), lengths
    has = lengths > 0
    first = buf[np.minimum(starts, len(buf) - 1)]
    neg = has & (first == _MINUS)
    signed = neg | (has & (first == _PLUS))
    return neg, lengths - signed


#: Word-wide constants of the digit parsers (eight bytes each).
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_DOTS = np.uint64(0x2E2E2E2E2E2E2E2E)  # "........"
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_THREES = np.uint64(0x3333333333333333)
_LOW_BITS = np.uint64(0x7F7F7F7F7F7F7F7F)
_HIGH_BITS = np.uint64(0x8080808080808080)
#: Byte ``j`` holds ``j``: multiplying a word's single byte flag by it
#: brings the count of bytes after the flag to the top byte.
_BYTE_INDEX = np.uint64(0x0706050403020100)
_U = np.uint64


def _word_view(buf: np.ndarray) -> np.ndarray:
    """Every unaligned little-endian word of ``buf``: word ``p`` is
    bytes ``[p, p + 8)``, its first byte the lowest-order one."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _fill_zeros(words: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """``words`` (in place) with their first ``fill`` bytes read as
    ``'0'``: set to 0xFF, then 0xFF ^ 0xCF."""
    mask = _BYTE_MASKS[fill]
    words |= mask
    mask &= ~_ZEROS
    words ^= mask
    return words


def _digit_words(
    buf: np.ndarray, ends: np.ndarray, dlens: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Each field's last 16 bytes as two words ``(high, low)``, every
    byte before its ``dlens`` digit bytes read as ``'0'`` (``high`` is
    ``None`` when no field is longer than 8); and which rows the window
    holds the reach of (16 bytes, or 8 for fields of at most 8)."""
    n = len(ends)
    if len(buf) < 8:
        return None, np.full(n, _ZEROS), np.zeros(n, dtype=np.bool_)
    view = _word_view(buf)
    wide = dlens > 8
    held = ends >= 8
    at = ends - 8
    np.maximum(at, 0, out=at)
    fill = 8 - dlens  # bytes before the digits, if positive
    low = _fill_zeros(view[at], np.maximum(fill, 0))
    high = None
    if wide.any():
        held &= ~wide | (ends >= 16)
        at -= 8
        np.maximum(at, 0, out=at)
        fill += 8
        np.clip(fill, 0, 8, out=fill)
        high = _fill_zeros(view[at], fill)
    return high, low, held


def _all_digits(words: np.ndarray) -> np.ndarray:
    """Words whose eight bytes are all ASCII digits: high nibble 3, and
    still 3 after adding 6 (``':'`` .. ``'?'`` carry into 4)."""
    carried = words + _SIXES
    carried &= _HIGH_NIBBLES
    carried >>= _U(4)
    carried |= words & _HIGH_NIBBLES
    return carried == _THREES


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of eight ASCII digits per word, first byte most
    significant: pairs, then quads, then the whole (x10, x100, x10^4)."""
    value = words & _U(0x0F0F0F0F0F0F0F0F)
    value *= _U(2561)
    value >>= _U(8)
    value &= _U(0x00FF00FF00FF00FF)
    value *= _U(6553601)
    value >>= _U(16)
    value &= _U(0x0000FFFF0000FFFF)
    value *= _U(42949672960001)
    value >>= _U(32)
    return value


def _digits_value(high: np.ndarray | None, low: np.ndarray) -> np.ndarray:
    """The (at most 16-digit) decimal value of ``high`` then ``low``."""
    value = _eight_digits(low)
    if high is not None:
        upper = _eight_digits(high)
        upper *= _U(10**8)
        value += upper
    return value.view(np.int64)


def _dot_flags(words: np.ndarray) -> np.ndarray:
    """``0x80`` in each byte of ``words`` that is ``'.'``, else 0 (the
    exact zero-byte test: no carry crosses a byte)."""
    x = words ^ _DOTS
    return ~(((x & _LOW_BITS) + _LOW_BITS) | x) & _HIGH_BITS


def _bytes_after(flags: np.ndarray) -> np.ndarray:
    """Per word holding one flagged byte, the bytes after it (0 when
    none is flagged)."""
    return (((flags >> _U(7)) * _BYTE_INDEX) >> _U(56)).view(np.int64)


def parse_int64(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-parse int64 fields given byte bounds; returns (values, ok).

    Rows with ``ok`` False carry 0 and must be parsed by the caller's
    scalar fallback.  Fast path: optional sign + 1..16 ASCII digits,
    read as the two words ending at the field's end, when the window
    holds those 16 bytes (8 for at most 8 digits).
    """
    n = len(starts)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.bool_)
    neg, dlens = _sign_split(buf, starts, ends)
    high, low, ok = _digit_words(buf, ends, dlens)
    ok &= (dlens > 0) & (dlens <= 16) & _all_digits(low)
    if high is not None:
        ok &= _all_digits(high)
    magnitude = _digits_value(high, low)
    values = np.where(ok, np.where(neg, -magnitude, magnitude), 0)
    return values, ok


def parse_float64(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-parse float64 fields given byte bounds; returns (values, ok).

    Bit-identical to ``float(text)`` for every row it accepts: the
    mantissa (<= 15 digits) and the power of ten (<= 22) are both exact
    in float64, so the single division is correctly rounded.  The dot
    is found in the field's own two words and read as a ``'0'`` digit;
    the digits after it are then split off the integer value.
    """
    n = len(starts)
    if n == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.bool_)
    neg, dlens = _sign_split(buf, starts, ends)
    high, low, ok = _digit_words(buf, ends, dlens)
    dots = _dot_flags(low)
    low += dots >> _U(6)  # '.' + 2 == '0'
    ok &= _all_digits(low)
    single = (dots & (dots - _U(1))) == 0
    hasdot = dots != 0
    frac = _bytes_after(dots)
    if high is not None:
        high_dots = _dot_flags(high)
        high += high_dots >> _U(6)
        ok &= _all_digits(high)
        in_high = high_dots != 0
        single &= (high_dots & (high_dots - _U(1))) == 0
        single &= ~(in_high & hasdot)  # a dot in each word
        frac = np.where(in_high, 8 + _bytes_after(high_dots), frac)
        hasdot |= in_high
    ndigits = dlens - hasdot
    ok &= single & (ndigits >= 1) & (ndigits <= 15)
    frac = np.where(ok, frac, 0)  # many dots sum to any count
    # With the dot read as a 0 digit ``frac`` places up, the digits
    # before it sit one place too high: split at 10**frac, shift the
    # high part down one place and recombine.
    digits = _digits_value(high, low)
    post = digits % _POW10_I[frac]
    mantissa = np.where(hasdot, (digits - post) // 10 + post, digits)
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


def json_values(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The text bounds of JSON value tokens (window-relative): a
    string's contents between its quotes, any other token as is; and
    which tokens are the unquoted literal ``null``.  The string
    ``"null"`` is the text ``null``."""
    if len(starts) == 0:
        return starts, ends, np.zeros(0, dtype=np.bool_)
    quoted = (buf[starts] == _QUOTE).astype(np.int64)
    nulls = (quoted == 0) & null_mask(buf, starts, ends, b"null")
    return starts + quoted, ends - quoted, nulls


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
    row_offset: int | np.ndarray = 0,
    json: bool = False,
) -> ColumnVector:
    """Vectorized convert of one column slice given file-offset bounds.

    ``starts`` / ``ends`` lie inside the window ``cbuf``.  Drop-in for
    the scalar path over the same field texts (:func:`convert_column
    <repro.datatypes.convert_column>`, or :meth:`ColumnVector.from_texts
    <repro.batch.ColumnVector.from_texts>` for TEXT): same values, same
    null mask, and the same error (message, row, cause) on the first
    unconvertible row.  INTEGER, FLOAT and TEXT are supported — callers
    route BOOLEAN and DATE to the text path.

    ``json`` bounds are JSON value tokens (:mod:`repro.kernels.jsonl`):
    the unquoted literal ``null`` is NULL, and a string converts its
    contents between the quotes, as
    :func:`repro.formats.jsonl.token_text` reads them.
    """
    base = cbuf.base
    starts = np.ascontiguousarray(starts, dtype=np.int64) - base
    ends = np.ascontiguousarray(ends, dtype=np.int64) - base
    buf = cbuf.buf
    if json:
        starts, ends, json_nulls = json_values(buf, starts, ends)
    nulls = null_mask(buf, starts, ends, null_token.encode("utf-8"))
    if json:
        nulls |= json_nulls
    live = np.flatnonzero(~nulls)
    if dtype is DataType.TEXT:
        codes = np.zeros(len(starts), dtype=np.int32)
        live_codes, dictionary = factorize_fields(
            cbuf.data, starts[live], ends[live], base
        )
        codes[live] = live_codes
        return ColumnVector(dtype, codes, nulls, dictionary)
    parser = _PARSERS[dtype]
    if live.size == len(starts):  # no NULL: parse the slice as is
        values, ok = parser(buf, starts, ends)
        bad = np.flatnonzero(~ok)
    else:
        values = np.zeros(len(starts), dtype=dtype.numpy_dtype)
        vals, ok = parser(buf, starts[live], ends[live])
        values[live] = vals  # 0 where not ok
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
                row = row_number(row_offset, i)
                raise ConversionError(
                    f"row {row}: cannot convert {t!r} to {dtype.value}",
                    row=row,
                ) from exc
    return ColumnVector(dtype, values, nulls)
