"""Binary columnar ROWS_BIN encoding — the wire's only result encoding.

Re-serializing every result value to text would re-introduce exactly
the per-value conversion cost the engine works to avoid (the paper's
"Convert" component, paid again at the wire).  Each batch therefore
travels as *typed column vectors*: numeric columns go as raw
little-endian ``int64``/``float64`` vectors (one ``frombuffer`` on the
receiving side), NULLs as a packed bitmap, and strings as one offsets
array plus a UTF-8 blob — the wire-level analogue of the engine's cache
of "final binary values".

A ROWS_BIN frame's payload (after the protocol's 1-byte frame type)::

    header: qid u32 | n_rows u32 | n_cols u16        (little-endian)
    per column, in ROWSET order:
        tag   u8      (TYPE_TAGS[dtype])
        nulls u8      (1 = a null bitmap follows, 0 = column has no NULLs)
        [bitmap]      ceil(n_rows/8) bytes, bit i (LSB-first) = row i NULL
        values:
            INTEGER / DATE   n_rows x i64
            FLOAT            n_rows x f64
            BOOLEAN          n_rows x u8 (0/1)
            TEXT             (n_rows + 1) x u32 cumulative byte offsets,
                             then the concatenated UTF-8 blob

NULL slots keep their fixed-width cell (0 / NaN / zero-length), exactly
as the engine stores them under the mask.  Every column is converted
once per batch, whole: numeric vectors by one typed copy, a TEXT column
— dictionary codes — by encoding each dictionary string once and
gathering the rows' bytes and lengths by code; a frame is then slices
of those.  Decoding dictionary-encodes each TEXT column again, with the
scan kernel's own routine (:func:`repro.kernels.convert.factorize_fields`:
each distinct value decoded once, strictly), so neither side does
interpreted work per value.  Vector data is
little-endian (the engine's native layout on every supported host); the
outer frame header stays big-endian like every other frame.  Decoded
rows equal ``batch_rows`` of the source batch value for value —
asserted by the wire and codec property suites.
"""

from __future__ import annotations

import struct
from typing import Iterator

import numpy as np

from ..batch import Batch, ColumnVector
from ..datatypes import DataType
from ..errors import ProtocolError, RawDataError
from ..kernels.convert import factorize_fields

#: One byte per column identifying its type on the wire.
TYPE_TAGS: dict[DataType, int] = {
    DataType.INTEGER: 1,
    DataType.FLOAT: 2,
    DataType.TEXT: 3,
    DataType.BOOLEAN: 4,
    DataType.DATE: 5,
}
TAG_TYPES: dict[int, DataType] = {tag: dt for dt, tag in TYPE_TAGS.items()}

_PAYLOAD_HEADER = struct.Struct("<IIH")

#: Outer frame plumbing (mirrors protocol._HEADER, which this module
#: cannot import without a cycle: protocol imports the codec).
_FRAME_HEADER = struct.Struct("!I")

#: Wire layout of each fixed-width vector; TEXT's entry is its offsets.
_WIRE_DTYPE: dict[DataType, str] = {
    DataType.INTEGER: "<i8",
    DataType.DATE: "<i8",
    DataType.FLOAT: "<f8",
    DataType.BOOLEAN: "<u1",
    DataType.TEXT: "<u4",
}


# ----------------------------------------------------------------------
# Encoding (server side).
# ----------------------------------------------------------------------


def _text_offsets(vec: ColumnVector) -> tuple[np.ndarray, bytes]:
    """A whole TEXT column as ``n + 1`` cumulative UTF-8 byte offsets
    (int64) and one blob, gathered by code from the encoded dictionary;
    NULL slots are zero-length."""
    vec = vec.narrowed()
    encoded = [text.encode("utf-8") for text in vec.dictionary.tolist()]
    encoded.append(b"")  # what a NULL row takes
    pieces = np.empty(len(encoded), dtype=object)
    pieces[:] = encoded
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    codes = np.where(vec.null_mask, len(encoded) - 1, vec.values)
    offsets = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(lengths[codes], out=offsets[1:])
    return offsets, b"".join(pieces[codes].tolist())


def iter_binary_row_frames(
    qid: int,
    batch: Batch,
    names: list[str],
    dtypes: list[DataType],
    frame_bytes: int,
) -> Iterator[bytes]:
    """Encode one batch as ROWS_BIN frames, each under ``frame_bytes``
    where possible.

    A frame takes the longest run of rows whose exact encoded size
    (fixed widths plus UTF-8 text bytes plus each column's bitmap when
    its slice has NULLs) fits: the size of rows ``[start, stop)`` is
    O(cols) from prefix sums and grows with ``stop``, so the whole
    batch is checked once and only a batch over the bound is bisected.
    A single row whose encoding alone exceeds the bound still travels
    as its own oversized frame — the receiving side's limit applies to
    incoming *request* frames; result frames that large mean the
    operator should raise ``frame_bytes``.
    """
    from .protocol import FrameType  # late: protocol imports this module

    n = batch.num_rows
    if n == 0:
        return
    # Per column: tag, mask, NULL prefix sums (None: no NULLs at all),
    # the whole column in wire layout and, for TEXT, its blob.
    columns = []
    text_cum = np.zeros(n + 1, dtype=np.int64)
    for name, dtype in zip(names, dtypes):
        vec = batch.column(name)
        mask = vec.null_mask
        null_cum = None
        if mask.any():
            null_cum = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(mask, out=null_cum[1:])
        if dtype is DataType.TEXT:
            data, blob = _text_offsets(vec)
            text_cum += data
        else:
            data = np.ascontiguousarray(vec.values, _WIRE_DTYPE[dtype])
            blob = None
        columns.append((TYPE_TAGS[dtype], mask, null_cum, data, blob))
    null_cums = [col[2] for col in columns if col[2] is not None]
    fixed_per_row = sum(np.dtype(_WIRE_DTYPE[dt]).itemsize for dt in dtypes)
    # Per-frame constant: payload header, per-column tag+flag bytes and
    # the TEXT columns' extra offsets entry.
    base = _PAYLOAD_HEADER.size + sum(
        6 if dt is DataType.TEXT else 2 for dt in dtypes
    )
    budget = frame_bytes - (_FRAME_HEADER.size + 1)

    def fits(start: int, stop: int) -> bool:
        rows = stop - start
        bitmaps = sum(1 for cum in null_cums if cum[stop] > cum[start])
        size = (
            base
            + bitmaps * ((rows + 7) // 8)
            + rows * fixed_per_row
            + int(text_cum[stop] - text_cum[start])
        )
        return size <= budget

    frame_type = bytes((int(FrameType.ROWS_BIN),))
    start = 0
    while start < n:
        # Largest stop with a fitting slice; a frame carries >= 1 row.
        stop, over = start + 1, n
        if fits(start, n):
            stop = n
        while over - stop > 1:
            mid = (stop + over) // 2
            if fits(start, mid):
                stop = mid
            else:
                over = mid
        pieces = [_PAYLOAD_HEADER.pack(qid, stop - start, len(columns))]
        for tag, mask, cum, data, blob in columns:
            nulls = cum is not None and bool(cum[stop] > cum[start])
            pieces.append(bytes((tag, nulls)))
            if nulls:
                bits = np.packbits(mask[start:stop], bitorder="little")
                pieces.append(bits.tobytes())
            if blob is None:
                pieces.append(data[start:stop].tobytes())
                continue
            lo, hi = int(data[start]), int(data[stop])
            if hi - lo > 0xFFFFFFFF:
                raise ProtocolError(
                    "TEXT column chunk exceeds the 4 GiB offset range; "
                    "lower frame_bytes"
                )
            offsets = (data[start : stop + 1] - lo).astype("<u4")
            pieces += [offsets.tobytes(), memoryview(blob)[lo:hi]]
        length = sum(map(len, pieces)) + 1
        yield b"".join([_FRAME_HEADER.pack(length), frame_type, *pieces])
        start = stop


# ----------------------------------------------------------------------
# Decoding (client side).
# ----------------------------------------------------------------------


def peek_qid(body: bytes) -> int:
    """The stream id of a ROWS_BIN payload (for frame demultiplexing)."""
    if len(body) < _PAYLOAD_HEADER.size:
        raise ProtocolError("truncated ROWS_BIN payload header")
    return _PAYLOAD_HEADER.unpack_from(body, 0)[0]


def _decode_text(
    view: memoryview, pos: int, offsets: np.ndarray, mask: np.ndarray
) -> ColumnVector:
    """One TEXT column whose blob starts at ``view[pos]``: one bounds
    check, then the non-NULL values dictionary-encoded from the blob's
    bytes, each distinct value decoded once (strict UTF-8, so a
    character split across two values still raises)."""
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise ProtocolError("ROWS_BIN text offsets do not ascend from 0")
    size = int(offsets[-1])
    blob = bytes(view[pos : pos + size])
    if len(blob) != size:
        raise ProtocolError("ROWS_BIN text blob shorter than its offsets")
    bounds = offsets.astype(np.int64)
    live = np.flatnonzero(~mask)
    codes = np.zeros(len(mask), dtype=np.int32)
    try:
        codes[live], dictionary = factorize_fields(
            blob, bounds[:-1][live], bounds[1:][live]
        )
    except RawDataError as exc:
        raise ProtocolError(f"undecodable ROWS_BIN text: {exc}") from None
    return ColumnVector(DataType.TEXT, codes, mask, dictionary)


def decode_binary_rows(
    body: bytes, names: list[str], dtypes: list[DataType]
) -> Batch:
    """Decode one ROWS_BIN payload into a :class:`Batch`.

    Numeric vectors come back through one ``frombuffer`` + copy per
    column (owned arrays — the frame buffer is not retained); a TEXT
    column through one bounds check and a dictionary encode of its
    blob (see :func:`_decode_text`).
    Anything malformed raises :class:`ProtocolError`.
    """
    view = memoryview(body)
    try:
        _, n_rows, n_cols = _PAYLOAD_HEADER.unpack_from(view, 0)
    except struct.error:
        raise ProtocolError("truncated ROWS_BIN payload header") from None
    if n_cols != len(dtypes):
        raise ProtocolError(
            f"ROWS_BIN carries {n_cols} columns, ROWSET declared "
            f"{len(dtypes)}"
        )
    pos = _PAYLOAD_HEADER.size
    if n_cols and n_rows > len(view) - pos:  # every cell takes >= 1 byte
        raise ProtocolError(f"ROWS_BIN payload too short for {n_rows} rows")
    columns: dict[str, ColumnVector] = {}
    try:
        for name, dtype in zip(names, dtypes):
            tag, flag = view[pos], view[pos + 1]
            pos += 2
            if TAG_TYPES.get(tag) is not dtype:
                raise ProtocolError(
                    f"column {name!r}: wire tag {tag} does not match "
                    f"declared type {dtype.value}"
                )
            if flag:
                nb = (n_rows + 7) // 8
                mask = np.unpackbits(
                    np.frombuffer(view, np.uint8, count=nb, offset=pos),
                    count=n_rows,
                    bitorder="little",
                ).astype(np.bool_)
                pos += nb
            else:
                mask = np.zeros(n_rows, dtype=np.bool_)
            wire = _WIRE_DTYPE[dtype]
            count = n_rows + 1 if dtype is DataType.TEXT else n_rows
            vector = np.frombuffer(view, wire, count=count, offset=pos)
            pos += vector.nbytes
            if dtype is DataType.TEXT:
                columns[name] = _decode_text(view, pos, vector, mask)
                pos += int(vector[-1])
            else:
                values = vector.astype(dtype.numpy_dtype)
                columns[name] = ColumnVector(dtype, values, mask)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable ROWS_BIN payload: {exc}") from None
    if pos != len(view):
        raise ProtocolError(
            f"ROWS_BIN payload has {len(view) - pos} trailing bytes"
        )
    if not columns:
        return Batch({}, num_rows=n_rows)
    return Batch(columns)
