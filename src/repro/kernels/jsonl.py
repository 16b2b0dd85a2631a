"""The JSONL scan kernel: structural indexing of flat JSON records.

simdjson (Langdale & Lemire, "Parsing Gigabytes of JSON per Second",
2019) parses in two stages: first find every *structural* byte of a
buffer in bulk, then walk that index instead of the bytes.  Here both
stages are numpy passes over a window of records:

1. **Quotes.**  A window with no backslash has no escaped quote, so
   every quote opens or closes a string.
2. **Structure.**  The ``{ } [ ] : ,`` bytes.  A flat record of ``k``
   keys holds ``2k + 1`` of them outside strings, in the order
   ``{ : , : , ... : }``, so the window's structure reshapes into one
   row per record.  Only when a string holds some are those dropped:
   the ones an odd number of the record's quotes precede.
3. **Values** start at the first non-blank byte after their colon.
   Each key, and each string value, takes the record's next two
   quotes, which must lie between its delimiters — so no structural
   byte sits inside a string.  A string ends at its closing quote;
   anything else at the blanks before the next ``,`` / ``}``.  Between
   tokens there is only blank space (space or tab): one cumulative
   count of blanks checks every gap of the window at once.

Every record must hold exactly the schema's keys, in the window's
first record's order.  :func:`tokenize_records` returns ``None`` for a
window it cannot prove reads that way — a backslash, bytes that are not
UTF-8, a nested ``{`` / ``[``, a missing, extra, repeated or reordered
key, malformed syntax or trailing content — and the caller parses it
with the scalar :func:`repro.formats.jsonl.parse_record`, which raises
the same errors as ever.  :func:`value_ends` does the same for the
values a positional-map jump reads.  What the kernel accepts, the
scalar parser reads the same way: the property suite checks offsets,
converted values and errors against it.
"""

from __future__ import annotations

import numpy as np

from .content import ContentBuffer

_QUOTE = 0x22
_STRUCTURAL = b"{}[]:,"
_BACKSLASH = 0x5C
#: What ends a number / ``true`` / ``false`` / ``null`` literal.
_CLOSER = np.zeros(256, dtype=np.bool_)
_CLOSER[list(b",} \t")] = True
#: Windows of fewer records, and map jumps of fewer values, are left
#: to the scalar path: below these the numpy steps' fixed cost exceeds
#: the per-record Python they replace (measured on 12-key records).
MIN_RECORDS = 32
MIN_VALUES = 192
#: Records one numpy pass indexes: its temporaries take about 40 bytes
#: per byte of records.
CHUNK_RECORDS = 1024
#: Cells a map jump first reads per value (x4 for the longer ones).
_FIRST_CELLS = 16
#: Blanks between a colon and its value longer than this send the
#: window to the scalar parser (each blank is one vectorized step).
_MAX_BLANK_RUN = 8


def _is_utf8(data: bytes, a: int, b: int) -> bool:
    chunk = data[a:b]
    if chunk.isascii():
        return True
    try:
        chunk.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _record_pattern(n_keys: int) -> np.ndarray:
    """The structural bytes of one flat record: ``{ : , : ... : }``."""
    pattern = np.full(2 * n_keys + 1, ord(","), dtype=np.uint8)
    pattern[0] = ord("{")
    pattern[1::2] = ord(":")
    pattern[-1] = ord("}")
    return pattern


def _any_of(region: np.ndarray, chars: bytes) -> np.ndarray:
    """Positions in ``region`` of any of the bytes ``chars``."""
    hit = region == chars[0]
    for c in chars[1:]:
        hit |= region == c
    return np.flatnonzero(hit)


def tokenize_records(
    keys: tuple[bytes, ...],
    cbuf: ContentBuffer,
    record_starts: np.ndarray,
    record_ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Locate every schema key's value in the records ``[record_starts,
    record_ends)`` (file offsets inside ``cbuf``, in file order).

    Returns ``(starts, ends)``: ``(n, len(keys))`` file offsets of each
    value token, by attribute — or ``None`` when the window needs the
    scalar parser (see the module docstring) or has fewer than
    :data:`MIN_RECORDS` records.  Records are indexed
    :data:`CHUNK_RECORDS` at a time, which bounds the temporaries.
    """
    n, n_keys = len(record_starts), len(keys)
    if n < MIN_RECORDS:
        return None
    starts = np.empty((n, n_keys), dtype=np.int64)
    ends = np.empty((n, n_keys), dtype=np.int64)
    names = order = None
    for lo in range(0, n, CHUNK_RECORDS):
        hi = min(lo + CHUNK_RECORDS, n)
        found = _index_records(
            cbuf, record_starts[lo:hi], record_ends[lo:hi], n_keys
        )
        if found is None:
            return None
        if names is None:
            # The first record's keys: a permutation of the schema's.
            names = found[0]
            if sorted(names) != sorted(keys):
                return None
            order = np.argsort([keys.index(name) for name in names])
        elif found[0] != names:
            return None
        starts[lo:hi] = found[1][:, order]
        ends[lo:hi] = found[2][:, order]
    return starts, ends


def _index_records(
    cbuf: ContentBuffer,
    record_starts: np.ndarray,
    record_ends: np.ndarray,
    n_keys: int,
) -> tuple[list[bytes], np.ndarray, np.ndarray] | None:
    """One pass of :func:`tokenize_records`: the key names of the first
    record, which every record holds in that order, and the starts and
    ends of the values, in record order."""
    n = len(record_starts)
    data = cbuf.data
    a = int(record_starts[0]) - cbuf.base
    b = int(record_ends[-1]) - cbuf.base
    if data.find(b"\\", a, b) != -1 or not _is_utf8(data, a, b):
        return None
    region = cbuf.buf[a:b]
    rs = np.asarray(record_starts, dtype=np.int64) - (cbuf.base + a)
    re = np.asarray(record_ends, dtype=np.int64) - (cbuf.base + a)
    quotes = np.flatnonzero(region == _QUOTE)
    first_quote = np.searchsorted(quotes, rs)
    record_quotes = np.searchsorted(quotes, re) - first_quote

    # Structure: 2k + 1 bytes per record.  Only when a string holds
    # some are the ones inside strings (an odd number of quotes before
    # them) dropped; what follows proves the rest outside.
    width = 2 * n_keys + 1
    structural = _any_of(region, _STRUCTURAL)
    counts = np.searchsorted(structural, re) - np.searchsorted(structural, rs)
    if (counts != width).any():
        structural = structural[(np.searchsorted(quotes, structural) & 1) == 0]
        counts = np.searchsorted(structural, re)
        counts -= np.searchsorted(structural, rs)
    if len(structural) != n * width or (counts != width).any():
        return None
    grid = structural.reshape(n, width)
    if not (region[grid] == _record_pattern(n_keys)).all():
        return None
    colons = grid[:, 1::2]
    before = grid[:, :-1:2]  # the ``{`` or ``,`` before each key
    after = grid[:, 2::2]  # the ``,`` or ``}`` after each value

    # Values start at the first non-blank byte after their colon.
    blank = (region == 0x20) | (region == 0x09)
    pos = colons + 1
    for __ in range(_MAX_BLANK_RUN + 1):
        step = blank[pos] & (pos < after)
        if not step.any():
            break
        pos += step
    else:
        return None
    if (pos >= after).any():
        return None  # a missing value
    string = region[pos] == _QUOTE

    # Each key, and each string value, takes the record's next two
    # quotes: all of them, in order, between its delimiters.
    taken = 2 + 2 * string
    if (record_quotes != taken.sum(axis=1)).any():
        return None
    key_q = first_quote[:, None] + np.cumsum(taken, axis=1) - taken
    key_open, key_close = quotes[key_q], quotes[key_q + 1]
    value_open = quotes[np.where(string, key_q + 2, key_q)]
    close = quotes[np.where(string, key_q + 3, key_q)]
    placed = (before < key_open) & (key_close < colons)
    placed &= ~string | ((value_open == pos) & (close < after))
    if not placed.all():
        return None

    blanks = np.zeros(len(region) + 1, dtype=np.int32)
    np.cumsum(blank, out=blanks[1:])

    def solid(x, y):
        """Non-blank bytes in ``[x, y)``."""
        return (y - x) - (blanks[y] - blanks[x])

    # A literal runs up to the blanks before the next structural byte.
    ends = np.where(string, close + 1, after - (blanks[after] - blanks[pos]))
    # Structural bytes, keys and values are all a record holds but
    # blanks: a literal with a blank inside, or anything between the
    # tokens, leaves non-blank bytes over.
    in_tokens = solid(key_open, key_close + 1) + solid(pos, ends)
    if (solid(rs, re) != width + in_tokens.sum(axis=1)).any():
        return None

    # Keys: every record holds the first record's, in its order.
    names = [
        region[key_open[0, i] + 1 : key_close[0, i]].tobytes()
        for i in range(n_keys)
    ]
    lengths = np.array([len(name) for name in names])
    if (key_close - key_open - 1 != lengths).any():
        return None
    ramp = np.arange(lengths.sum()) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    cells = np.repeat(key_open + 1, lengths, axis=1) + ramp
    if not (region[cells] == np.frombuffer(b"".join(names), np.uint8)).all():
        return None
    shift = cbuf.base + a
    return names, pos + shift, ends + shift


def value_ends(
    cbuf: ContentBuffer, starts: np.ndarray, line_ends: np.ndarray
) -> np.ndarray | None:
    """One past each JSON value token starting at ``starts`` (file
    offsets; each record ends at its ``line_ends``): the positional-map
    jump's rule of :func:`repro.formats.jsonl.value_end`, for all rows
    at once.  Only the bytes of the values are read — a few cells per
    row, widened for the rows whose value is longer.

    ``starts`` are value starts a parse of the same bytes found, so each
    is a whole token.  ``None`` leaves the rows to the scalar path:
    fewer than :data:`MIN_VALUES`, a string with a backslash (escapes
    are ``json.loads``'), or a value whose bytes are not UTF-8.
    """
    n = len(starts)
    if n < MIN_VALUES:
        return None
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    line_ends = np.ascontiguousarray(line_ends, dtype=np.int64)
    ends = np.empty(n, dtype=np.int64)
    buf, base = cbuf.buf, cbuf.base
    string = buf[starts - base] == _QUOTE
    # A string ends one past its closing quote, searched from its second
    # byte; any other token at its first closer (or the line end).
    scan_from = starts - base + string
    limit = line_ends - base
    rows = np.arange(n)
    unicode = []
    width = _FIRST_CELLS
    while len(rows):
        cols = np.arange(width)
        at = scan_from[rows, None] + cols
        inside = at < limit[rows, None]
        cells = buf[np.minimum(at, len(buf) - 1)]
        quoted = string[rows]
        hit = inside & np.where(
            quoted[:, None], cells == _QUOTE, _CLOSER[cells]
        )
        found = hit.any(axis=1)
        col = np.where(found, hit.argmax(axis=1), inside.sum(axis=1))
        settled = found | ~inside[:, -1]
        if (settled & ~found & quoted).any():
            return None  # no closing quote: not a value start
        content = settled[:, None] & (cols < col[:, None])
        if (content & quoted[:, None] & (cells == _BACKSLASH)).any():
            return None  # an escape: json.loads reads it
        unicode.append(rows[(content & (cells >= 0x80)).any(axis=1)])
        ends[rows[settled]] = (scan_from[rows] + col + quoted)[settled]
        rows = rows[~settled]
        width *= 4
    data = cbuf.data
    for r in np.concatenate(unicode).tolist():
        try:
            data[starts[r] - base : ends[r]].decode("utf-8")
        except UnicodeDecodeError:
            return None
    return ends + base
