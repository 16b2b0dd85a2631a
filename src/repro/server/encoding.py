"""Binary columnar ROWS_BIN encoding — the wire's only result encoding.

Re-serializing every result value to text would re-introduce exactly
the per-value conversion cost the engine works to avoid (the paper's
"Convert" component, paid again at the wire).  Each batch therefore
travels as *typed column vectors*: numeric columns go as raw
little-endian ``int64``/``float64``
vectors (one ``frombuffer`` on the receiving side, no per-value
dispatch), NULLs as a packed bitmap, and strings as one offsets array
plus a UTF-8 blob — the wire-level analogue of the engine's cache of
"final binary values".

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
as the engine stores them under the mask, so encoding a batch is a
handful of ``tobytes`` calls on the column vectors it already holds.
Vector data is little-endian (the engine's native layout on every
supported host); the outer frame header stays big-endian like every
other frame.  Decoded rows equal ``batch_rows`` of the source batch
value for value — asserted by the wire test suite.
"""

from __future__ import annotations

import struct
from typing import Iterator

import numpy as np

from ..batch import Batch, ColumnVector
from ..datatypes import DataType
from ..errors import ProtocolError

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

#: Bytes one row contributes beyond its text payload, per column.
_FIXED_WIDTH: dict[DataType, int] = {
    DataType.INTEGER: 8,
    DataType.FLOAT: 8,
    DataType.DATE: 8,
    DataType.BOOLEAN: 1,
    DataType.TEXT: 4,  # its offsets-array entry
}


# ----------------------------------------------------------------------
# Encoding (server side).
# ----------------------------------------------------------------------


def _column_chunk(
    vec: ColumnVector,
    dtype: DataType,
    start: int,
    stop: int,
    encoded_texts: "list[bytes | None] | None" = None,
) -> list[bytes]:
    """One column's wire pieces for rows ``[start, stop)``.

    ``encoded_texts`` is the column's pre-encoded UTF-8 values (NULLs
    as ``None``, full-column indexing) when the caller already paid the
    encode during frame sizing — each TEXT value is encoded exactly
    once per batch.
    """
    mask = np.ascontiguousarray(vec.null_mask[start:stop])
    has_nulls = bool(mask.any())
    pieces = [bytes((TYPE_TAGS[dtype], 1 if has_nulls else 0))]
    if has_nulls:
        pieces.append(np.packbits(mask, bitorder="little").tobytes())
    values = vec.values[start:stop]
    if dtype is DataType.FLOAT:
        pieces.append(np.ascontiguousarray(values, dtype="<f8").tobytes())
    elif dtype is DataType.BOOLEAN:
        pieces.append(
            np.ascontiguousarray(values, dtype=np.uint8).tobytes()
        )
    elif dtype is DataType.TEXT:
        n = stop - start
        offsets = np.zeros(n + 1, dtype="<u4")
        blob = bytearray()
        for i in range(n):
            if encoded_texts is not None:
                piece = encoded_texts[start + i]
            else:
                value = values[i]
                piece = (
                    str(value).encode("utf-8")
                    if not mask[i] and value is not None
                    else None
                )
            if piece is not None:
                blob += piece
            offsets[i + 1] = len(blob)
        if len(blob) > 0xFFFFFFFF:
            raise ProtocolError(
                "TEXT column chunk exceeds the 4 GiB offset range; "
                "lower frame_bytes"
            )
        pieces.append(offsets.tobytes())
        pieces.append(bytes(blob))
    else:  # INTEGER / DATE share the int64 vector layout
        pieces.append(np.ascontiguousarray(values, dtype="<i8").tobytes())
    return pieces


def _encode_slice(
    qid: int,
    cols: list[ColumnVector],
    dtypes: list[DataType],
    start: int,
    stop: int,
    encoded_by_col: "dict[int, list[bytes | None]] | None" = None,
) -> bytes:
    """One complete ROWS_BIN frame for rows ``[start, stop)``."""
    pieces = [_PAYLOAD_HEADER.pack(qid, stop - start, len(cols))]
    for index, (vec, dtype) in enumerate(zip(cols, dtypes)):
        encoded = (
            encoded_by_col.get(index) if encoded_by_col is not None else None
        )
        pieces.extend(_column_chunk(vec, dtype, start, stop, encoded))
    body = b"".join(pieces)
    from .protocol import FrameType  # late: protocol imports this module

    return (
        _FRAME_HEADER.pack(len(body) + 1)
        + bytes((int(FrameType.ROWS_BIN),))
        + body
    )


def iter_binary_row_frames(
    qid: int,
    batch: Batch,
    names: list[str],
    dtypes: list[DataType],
    frame_bytes: int,
) -> Iterator[bytes]:
    """Encode one batch as ROWS_BIN frames, each under ``frame_bytes``
    where possible.

    Split points come from exact per-row sizes (fixed widths plus UTF-8
    text lengths plus each column's bitmap when its slice has NULLs),
    computed from prefix sums so the greedy packing is O(rows x cols).
    A single row whose encoding alone exceeds the bound still travels
    as its own oversized frame — the receiving side's limit applies to
    incoming *request* frames; result frames that large mean the
    operator should raise ``frame_bytes``.
    """
    n = batch.num_rows
    if n == 0:
        return
    cols = [batch.column(name) for name in names]
    fixed_per_row = sum(_FIXED_WIDTH[dt] for dt in dtypes)
    # Cumulative UTF-8 bytes of every TEXT column, rows [0, i), and
    # cumulative NULL counts per column (a bitmap is emitted only for
    # slices that contain one).  The encoded values are kept and reused
    # when the slices are emitted, so each TEXT value pays its UTF-8
    # encode exactly once per batch.
    encoded_by_col: dict[int, list] = {}
    text_cum = np.zeros(n + 1, dtype=np.int64)
    for index, (vec, dtype) in enumerate(zip(cols, dtypes)):
        if dtype is not DataType.TEXT:
            continue
        encoded: list = [None] * n
        for i in range(n):
            value = vec.values[i]
            if not vec.null_mask[i] and value is not None:
                piece = str(value).encode("utf-8")
                encoded[i] = piece
                text_cum[i + 1] += len(piece)
        encoded_by_col[index] = encoded
    np.cumsum(text_cum, out=text_cum)
    null_cums = [
        np.concatenate(([0], np.cumsum(vec.null_mask, dtype=np.int64)))
        for vec in cols
    ]
    n_text = sum(1 for dt in dtypes if dt is DataType.TEXT)
    # Per-frame constant: payload header, per-column tag+flag bytes and
    # the TEXT columns' extra offsets entry.
    base = _PAYLOAD_HEADER.size + 2 * len(cols) + 4 * n_text
    budget = frame_bytes - (_FRAME_HEADER.size + 1)

    def slice_size(start: int, stop: int) -> int:
        rows = stop - start
        bitmap_rows = (rows + 7) // 8
        bitmaps = sum(
            bitmap_rows
            for cum in null_cums
            if cum[stop] - cum[start] > 0
        )
        return (
            base
            + bitmaps
            + rows * fixed_per_row
            + int(text_cum[stop] - text_cum[start])
        )

    start = 0
    while start < n:
        stop = start + 1  # a frame always carries at least one row
        while stop < n and slice_size(start, stop + 1) <= budget:
            stop += 1
        yield _encode_slice(qid, cols, dtypes, start, stop, encoded_by_col)
        start = stop


# ----------------------------------------------------------------------
# Decoding (client side).
# ----------------------------------------------------------------------


def peek_qid(body: bytes) -> int:
    """The stream id of a ROWS_BIN payload (for frame demultiplexing)."""
    if len(body) < _PAYLOAD_HEADER.size:
        raise ProtocolError("truncated ROWS_BIN payload header")
    return _PAYLOAD_HEADER.unpack_from(body, 0)[0]


def decode_binary_rows(
    body: bytes, names: list[str], dtypes: list[DataType]
) -> Batch:
    """Decode one ROWS_BIN payload into a :class:`Batch`.

    Numeric vectors come back through one ``frombuffer`` + copy per
    column (owned arrays — the frame buffer is not retained); TEXT is
    rebuilt per value from the offsets array, which is the only
    per-value loop left on the hot path.
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
            if dtype is DataType.FLOAT:
                values = np.frombuffer(
                    view, "<f8", count=n_rows, offset=pos
                ).astype(np.float64)
                pos += 8 * n_rows
            elif dtype is DataType.BOOLEAN:
                values = np.frombuffer(
                    view, np.uint8, count=n_rows, offset=pos
                ).astype(np.bool_)
                pos += n_rows
            elif dtype is DataType.TEXT:
                offsets = np.frombuffer(
                    view, "<u4", count=n_rows + 1, offset=pos
                )
                pos += 4 * (n_rows + 1)
                values = np.empty(n_rows, dtype=object)
                for i in range(n_rows):
                    if not mask[i]:
                        lo = pos + int(offsets[i])
                        hi = pos + int(offsets[i + 1])
                        if hi > len(view):
                            raise ProtocolError(
                                "ROWS_BIN text blob shorter than its offsets"
                            )
                        values[i] = str(view[lo:hi], "utf-8")
                pos += int(offsets[-1])
            else:  # INTEGER / DATE
                values = np.frombuffer(
                    view, "<i8", count=n_rows, offset=pos
                ).astype(np.int64)
                pos += 8 * n_rows
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
