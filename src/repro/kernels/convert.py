"""Vectorized text -> binary converters for the scan kernels.

Batch counterparts of :func:`repro.datatypes.convert_column` for
INTEGER and FLOAT columns: whole column slices are validated and parsed
with numpy, and only the rows that fail the fast validation fall back
to the scalar converters — preserving the legacy semantics (values,
null handling, error messages, even the exception cause chain) for
every input the fast path cannot prove safe.

Fast-path coverage (everything else falls back to ``int()``/``float()``
per row):

* INTEGER — optional sign + 1..18 ASCII digits (int64-safe; no
  whitespace, underscores or unicode digits).
* FLOAT — optional sign + ASCII digits with at most one ``.`` and at
  most 15 digits total: the field parses as an exact int64 mantissa
  divided by an exact power of ten, and IEEE-754 division rounds that
  to the same double ``float(text)`` produces (the classic Clinger
  fast path).
"""

from __future__ import annotations

import numpy as np

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
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized convert of one column slice given file-offset bounds.

    ``starts`` / ``ends`` lie inside the window ``cbuf``.  Drop-in for
    :func:`repro.datatypes.convert_column` over the same field texts:
    same values, same null mask, and the same :class:`ConversionError`
    (message, row, cause) on the first unconvertible row.  Only INTEGER
    and FLOAT are supported — callers route other dtypes to the legacy
    text path.
    """
    base = cbuf.base
    starts = np.ascontiguousarray(starts, dtype=np.int64) - base
    ends = np.ascontiguousarray(ends, dtype=np.int64) - base
    buf = cbuf.buf
    nulls = null_mask(buf, starts, ends, null_token.encode("utf-8"))
    parser = _PARSERS[dtype]
    values = np.zeros(len(starts), dtype=dtype.numpy_dtype)
    live = np.flatnonzero(~nulls)
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
    return values, nulls
