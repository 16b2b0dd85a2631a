"""Property: the ROWS_BIN codec over arbitrary batches.

Every dtype, NULLs with junk under the mask, empty and 2/3/4-byte UTF-8
strings, and ``frame_bytes`` from the configured floor up to 1 MiB:

* the frames are byte-identical to a row-at-a-time reference packer
  (grow a frame one row while the whole frame still fits);
* decoded rows equal ``batch_rows`` of the source batch;
* every frame fits ``frame_bytes`` unless it carries a single row;
* a byte-mutated or truncated payload either decodes or raises
  :class:`ProtocolError` — never another exception type.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.batch import Batch, ColumnVector
from repro.config import MIN_FRAME_BYTES
from repro.datatypes import DataType
from repro.errors import ProtocolError
from repro.executor.result import batch_rows
from repro.server.encoding import (
    TYPE_TAGS,
    decode_binary_rows,
    iter_binary_row_frames,
)
from repro.server.protocol import FrameType, read_frame_blocking

QID = 7

ASCII = st.text(st.characters(max_codepoint=0x7F), max_size=12)
#: 1- to 4-byte UTF-8 characters (surrogates cannot be encoded).
UNICODE = st.text(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
        st.characters(
            min_codepoint=0x800, max_codepoint=0xFFFF, codec="utf-8"
        ),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=12,
)

CELLS = {
    DataType.INTEGER: st.integers(-(2**63), 2**63 - 1),
    DataType.DATE: st.integers(-(2**63), 2**63 - 1),
    DataType.FLOAT: st.floats(width=64),
    DataType.BOOLEAN: st.booleans(),
}

FRAME_BYTES = st.one_of(
    st.integers(MIN_FRAME_BYTES, 4 * MIN_FRAME_BYTES),
    st.integers(MIN_FRAME_BYTES, 1 << 20),
)


@st.composite
def batches(draw, min_rows: int = 0):
    """A batch, its column names and dtypes.  Cells under the NULL mask
    are junk: arbitrary numbers, or for TEXT any code of its dictionary
    (whose strings include ones only NULL rows hold)."""
    n = draw(st.integers(min_rows, 150))
    dtypes = draw(st.lists(st.sampled_from(list(TYPE_TAGS)), max_size=5))
    names = [f"c{i}" for i in range(len(dtypes))]
    columns = {}
    for name, dtype in zip(names, dtypes):
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        mask = np.array(mask, bool)
        if dtype is DataType.TEXT:
            text = draw(st.sampled_from([ASCII, UNICODE]))
            cells = [draw(UNICODE if null else text) for null in mask]
            vector = ColumnVector.from_texts(cells)
            for i in np.flatnonzero(mask).tolist():
                vector.values[i] = draw(
                    st.integers(0, len(vector.dictionary) - 1)
                )
            columns[name] = ColumnVector(
                dtype, vector.values, mask, vector.dictionary
            )
            continue
        cells = draw(st.lists(CELLS[dtype], min_size=n, max_size=n))
        values = np.empty(n, dtype=dtype.numpy_dtype)
        values[:] = cells
        columns[name] = ColumnVector(dtype, values, mask)
    return Batch(columns, num_rows=n), names, dtypes


def reference_frame(batch, names, dtypes, start: int, stop: int) -> bytes:
    """One ROWS_BIN frame for rows ``[start, stop)``, value by value."""
    body = struct.pack("<IIH", QID, stop - start, len(names))
    for name, dtype in zip(names, dtypes):
        vec = batch.column(name)
        mask = [bool(m) for m in vec.null_mask[start:stop]]
        body += bytes((TYPE_TAGS[dtype], any(mask)))
        if any(mask):
            bitmap = bytearray((len(mask) + 7) // 8)
            for i, null in enumerate(mask):
                bitmap[i // 8] |= null << (i % 8)
            body += bytes(bitmap)
        values = vec.values[start:stop].tolist()
        if dtype is DataType.TEXT:
            values = [vec.dictionary[code] for code in values]
            offsets, blob = [0], b""
            for value, null in zip(values, mask):
                blob += b"" if null else value.encode("utf-8")
                offsets.append(len(blob))
            body += struct.pack(f"<{len(offsets)}I", *offsets) + blob
        elif dtype is DataType.FLOAT:
            body += b"".join(struct.pack("<d", v) for v in values)
        elif dtype is DataType.BOOLEAN:
            body += bytes(int(v) for v in values)
        else:
            body += b"".join(struct.pack("<q", v) for v in values)
    return (
        struct.pack("!I", len(body) + 1)
        + bytes((int(FrameType.ROWS_BIN),))
        + body
    )


def reference_frames(batch, names, dtypes, frame_bytes: int) -> list[bytes]:
    """Greedy packing: a frame grows one row while the whole frame still
    fits ``frame_bytes`` (and always carries at least one row)."""
    frames, start, n = [], 0, batch.num_rows
    while start < n:
        stop = start + 1
        frame = reference_frame(batch, names, dtypes, start, stop)
        while stop < n:
            grown = reference_frame(batch, names, dtypes, start, stop + 1)
            if len(grown) > frame_bytes:
                break
            frame, stop = grown, stop + 1
        frames.append(frame)
        start = stop
    return frames


def payload(frame: bytes) -> bytes:
    ftype, body = read_frame_blocking(io.BytesIO(frame), 1 << 30)
    assert ftype is FrameType.ROWS_BIN and body["qid"] == QID
    return body["data"]


def comparable(rows: list[tuple]) -> list[tuple]:
    """Rows with NaN made equal to itself."""
    return [
        tuple(
            "NaN" if isinstance(v, float) and math.isnan(v) else v
            for v in row
        )
        for row in rows
    ]


@settings(max_examples=60, deadline=None)
@given(case=batches(), frame_bytes=FRAME_BYTES)
def test_frames_match_row_at_a_time_reference(case, frame_bytes):
    batch, names, dtypes = case
    frames = list(
        iter_binary_row_frames(QID, batch, names, dtypes, frame_bytes)
    )
    assert frames == reference_frames(batch, names, dtypes, frame_bytes)


@settings(max_examples=80, deadline=None)
@given(case=batches(), frame_bytes=FRAME_BYTES)
def test_round_trip_and_frame_bound(case, frame_bytes):
    batch, names, dtypes = case
    rows: list[tuple] = []
    for frame in iter_binary_row_frames(
        QID, batch, names, dtypes, frame_bytes
    ):
        decoded = decode_binary_rows(payload(frame), names, dtypes)
        assert len(frame) <= frame_bytes or decoded.num_rows == 1
        rows.extend(
            batch_rows(decoded, names)
            if names
            else [()] * decoded.num_rows
        )
    expected = batch_rows(batch, names) if names else [()] * batch.num_rows
    assert comparable(rows) == comparable(expected)


@settings(max_examples=150, deadline=None)
@given(case=batches(min_rows=1), data=st.data())
def test_mutated_or_truncated_payload_decodes_or_raises(case, data):
    batch, names, dtypes = case
    frame = next(iter_binary_row_frames(QID, batch, names, dtypes, 1 << 20))
    body = bytearray(payload(frame))
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(body) - 1))
        body[at] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(body)))
    try:
        decode_binary_rows(bytes(body[:cut]), names, dtypes)
    except ProtocolError:
        pass
