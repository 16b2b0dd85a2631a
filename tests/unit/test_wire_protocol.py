"""The wire protocol's building blocks in isolation: frame round-trips,
oversized-frame rejection, the reserved 0x05 byte, ROWS_BIN frame
splitting and decoding (value-for-value against ``batch_rows`` of the
source batch), TEXT offset validation, and the exception <-> wire-code
mapping."""

from __future__ import annotations

import io
import struct

import pytest

from repro.batch import Batch, ColumnVector
from repro.datatypes import DataType
from repro.errors import (
    AdmissionError,
    CatalogError,
    CursorInvalidError,
    CursorTimeoutError,
    ExecutionError,
    ProtocolError,
    ReproError,
    SQLSyntaxError,
    StreamLimitError,
    error_from_wire,
    fresh_copy,
    wire_code_for,
)
from repro.executor.result import batch_rows
from repro.server.encoding import decode_binary_rows, iter_binary_row_frames
from repro.server.protocol import (
    FrameType,
    encode_frame,
    read_frame_blocking,
)


def roundtrip(ftype: FrameType, payload: dict, max_bytes=1 << 20):
    stream = io.BytesIO(encode_frame(ftype, payload))
    return read_frame_blocking(stream, max_bytes)


class TestFraming:
    def test_roundtrip_preserves_type_and_payload(self):
        ftype, payload = roundtrip(
            FrameType.QUERY, {"qid": 7, "sql": "SELECT 1"}
        )
        assert ftype is FrameType.QUERY
        assert payload == {"qid": 7, "sql": "SELECT 1"}

    def test_roundtrip_value_types_survive(self):
        rows = [[1, 1.5, "x", True, None], [-2, float("nan"), "", False, 0]]
        _, payload = roundtrip(FrameType.STATS, {"qid": 1, "stats": rows})
        got = payload["stats"]
        assert got[0] == rows[0]
        # NaN != NaN: compare field-by-field.
        assert got[1][0] == -2 and got[1][1] != got[1][1]
        assert got[1][2:] == ["", False, 0]

    def test_eof_at_boundary_is_none(self):
        assert read_frame_blocking(io.BytesIO(b""), 1024) is None

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError, match="mid frame header"):
            read_frame_blocking(io.BytesIO(b"\x00\x00"), 1024)

    def test_truncated_body_raises(self):
        whole = encode_frame(FrameType.HELLO, {"version": 2})
        with pytest.raises(ProtocolError, match="mid frame body"):
            read_frame_blocking(io.BytesIO(whole[:-3]), 1024)

    def test_oversized_frame_rejected_without_reading_body(self):
        big = encode_frame(FrameType.QUERY, {"qid": 1, "sql": "x" * 5000})
        with pytest.raises(ProtocolError, match="exceeds frame_bytes"):
            read_frame_blocking(io.BytesIO(big), 1024)

    @pytest.mark.parametrize("type_byte", [0x05, 0x7F])
    def test_unknown_frame_type_raises(self, type_byte):
        # 0x05 is the retired JSON ROWS frame: reserved, never reused.
        body = b'{"qid":1,"rows":[[1]]}'
        raw = struct.pack("!I", len(body) + 1) + bytes((type_byte,)) + body
        with pytest.raises(ProtocolError, match="unknown frame type"):
            read_frame_blocking(io.BytesIO(raw), 1024)

    def test_byte_0x05_is_not_a_frame_type(self):
        assert 0x05 not in {int(t) for t in FrameType}

    def test_non_object_payload_raises(self):
        body = b"[1,2]"
        raw = struct.pack("!I", len(body) + 1) + bytes(
            (int(FrameType.HELLO),)
        ) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame_blocking(io.BytesIO(raw), 1024)


def rows_to_batch(
    rows: list[tuple], dtypes: list[DataType]
) -> tuple[Batch, list[str]]:
    """Column-ize literal rows the way the executor would."""
    names = [f"c{i}" for i in range(len(dtypes))]
    columns = {
        name: ColumnVector.from_pylist(dtype, [row[i] for row in rows])
        for i, (name, dtype) in enumerate(zip(names, dtypes))
    }
    return Batch(columns, num_rows=len(rows)), names


def decode_frames(frames: list[bytes], names, dtypes) -> list[tuple]:
    """Rows carried by a ROWS_BIN frame sequence."""
    out: list[tuple] = []
    for frame in frames:
        ftype, payload = read_frame_blocking(io.BytesIO(frame), 1 << 30)
        assert ftype is FrameType.ROWS_BIN
        out.extend(
            batch_rows(
                decode_binary_rows(payload["data"], names, dtypes), names
            )
        )
    return out


#: Unicode/NULL-heavy mixed-type rows: every dtype, empty and non-ASCII
#: strings, NULLs in every column, negative and extreme numerics.
MIXED_DTYPES = [
    DataType.INTEGER,
    DataType.FLOAT,
    DataType.TEXT,
    DataType.BOOLEAN,
    DataType.DATE,
]
MIXED_ROWS = [
    (1, 1.5, "héllo wörld", True, 19_000),
    (None, None, None, None, None),
    (-(2**62), -0.0, "", False, 0),
    (7, 2.5e300, "日本語のテキスト", None, -3),
    (None, 0.125, "tab\tand\nnewline", True, None),
    (42, None, "ascii", False, 11_111),
]


def encode_mixed(frame_bytes: int, rows=MIXED_ROWS):
    """ROWS_BIN frames of ``rows``, plus the source batch's own rows
    (``batch_rows``) — the value-for-value reference."""
    batch, names = rows_to_batch(rows, MIXED_DTYPES)
    frames = list(
        iter_binary_row_frames(5, batch, names, MIXED_DTYPES, frame_bytes)
    )
    return frames, names, batch_rows(batch, names)


class TestRowFrames:
    """ROWS_BIN splitting edge cases; every decode is compared value for
    value with ``batch_rows`` of the source batch."""

    def test_unicode_and_null_heavy_rows_round_trip(self):
        frames, names, expected = encode_mixed(1 << 20)
        assert expected == MIXED_ROWS
        assert decode_frames(frames, names, MIXED_DTYPES) == expected

    def test_empty_batch_yields_no_frames(self):
        frames, _, _ = encode_mixed(1 << 20, rows=[])
        assert frames == []

    def test_single_row_larger_than_frame_bytes_still_sent(self):
        rows = [(1, 2.0, "x" * 10_000, True, 3)]
        frames, names, expected = encode_mixed(1024, rows=rows)
        assert len(frames) == 1  # unsplittable: oversized but delivered
        assert len(frames[0]) > 1024
        assert decode_frames(frames, names, MIXED_DTYPES) == expected

    def test_split_frames_stay_under_bound_and_preserve_order(self):
        rows = [
            (i, i * 0.5, f"value-{i:06d}-ü", i % 2 == 0, i)
            for i in range(500)
        ]
        frames, names, expected = encode_mixed(2048, rows=rows)
        assert len(frames) > 1
        assert all(len(f) <= 2048 for f in frames)
        assert decode_frames(frames, names, MIXED_DTYPES) == expected

    def test_batch_exactly_at_the_boundary_is_one_frame(self):
        # Learn the exact single-frame size, then re-encode with the
        # bound set exactly there: still one frame, exactly full.
        frames, names, expected = encode_mixed(1 << 20)
        assert len(frames) == 1
        exact = len(frames[0])
        refit, _, _ = encode_mixed(exact)
        assert len(refit) == 1
        assert len(refit[0]) == exact
        # One byte less and the packing must split.
        split, _, _ = encode_mixed(exact - 1)
        assert len(split) > 1
        assert decode_frames(split, names, MIXED_DTYPES) == expected


class TestBinaryCodec:
    def test_projection_less_batch_keeps_row_count(self):
        batch = Batch({}, num_rows=4)
        frames = list(iter_binary_row_frames(1, batch, [], [], 1 << 20))
        assert len(frames) == 1
        _, payload = read_frame_blocking(io.BytesIO(frames[0]), 1 << 20)
        decoded = decode_binary_rows(payload["data"], [], [])
        assert decoded.num_rows == 4 and decoded.columns == {}

    def test_column_count_mismatch_rejected(self):
        frames, names, _ = encode_mixed(1 << 20)
        _, payload = read_frame_blocking(io.BytesIO(frames[0]), 1 << 20)
        with pytest.raises(ProtocolError, match="columns"):
            decode_binary_rows(payload["data"], names[:2], MIXED_DTYPES[:2])

    def test_type_tag_mismatch_rejected(self):
        frames, names, _ = encode_mixed(1 << 20)
        _, payload = read_frame_blocking(io.BytesIO(frames[0]), 1 << 20)
        shuffled = [MIXED_DTYPES[-1]] + MIXED_DTYPES[1:-1] + [MIXED_DTYPES[0]]
        with pytest.raises(ProtocolError, match="tag"):
            decode_binary_rows(payload["data"], names, shuffled)

    def test_truncated_payload_rejected(self):
        frames, names, _ = encode_mixed(1 << 20)
        _, payload = read_frame_blocking(io.BytesIO(frames[0]), 1 << 20)
        with pytest.raises(ProtocolError):
            decode_binary_rows(payload["data"][:-9], names, MIXED_DTYPES)

    def test_row_count_beyond_payload_rejected(self):
        # Checked before any per-column vector is allocated.
        frames, names, _ = encode_mixed(1 << 20)
        _, payload = read_frame_blocking(io.BytesIO(frames[0]), 1 << 20)
        data = payload["data"]
        forged = data[:4] + struct.pack("<I", 2**32 - 1) + data[8:]
        with pytest.raises(ProtocolError, match="too short"):
            decode_binary_rows(forged, names, MIXED_DTYPES)

    def test_trailing_garbage_rejected(self):
        frames, names, _ = encode_mixed(1 << 20)
        _, payload = read_frame_blocking(io.BytesIO(frames[0]), 1 << 20)
        with pytest.raises(ProtocolError, match="trailing"):
            decode_binary_rows(
                payload["data"] + b"\x00", names, MIXED_DTYPES
            )


def text_payload(offsets: list[int], blob: bytes) -> bytes:
    """A hand-built one-TEXT-column ROWS_BIN payload, no NULLs."""
    n = len(offsets) - 1
    return (
        struct.pack("<IIH", 1, n, 1)
        + bytes((3, 0))
        + struct.pack(f"<{n + 1}I", *offsets)
        + blob
    )


class TestTextOffsets:
    def decode(self, offsets, blob):
        batch = decode_binary_rows(
            text_payload(offsets, blob), ["s"], [DataType.TEXT]
        )
        return batch.column("s").to_pylist()

    def test_well_formed_offsets_decode(self):
        assert self.decode([0, 5, 5, 8], b"abcdefgh") == ["abcde", "", "fgh"]
        assert self.decode([0, 2, 6], "éa日".encode()) == ["é", "a日"]

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(ProtocolError, match="offsets"):
            self.decode([0, 5, 3, 8], b"abcdefgh")

    def test_offsets_not_starting_at_zero_rejected(self):
        with pytest.raises(ProtocolError, match="offsets"):
            self.decode([2, 4, 6], b"abcdef")

    def test_offsets_past_the_blob_rejected(self):
        with pytest.raises(ProtocolError, match="shorter"):
            self.decode([0, 3, 9], b"abcdef")

    def test_character_split_across_values_rejected(self):
        # The blob alone is valid UTF-8; the boundary cuts "é" in two.
        with pytest.raises(ProtocolError):
            self.decode([0, 1, 2], "é".encode())


class TestWireCodes:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (AdmissionError("x"), "admission"),
            (StreamLimitError("x"), "stream_limit"),
            (CursorTimeoutError("x"), "cursor_timeout"),
            (CursorInvalidError("x"), "cursor_invalid"),
            (CatalogError("x"), "catalog"),
            (SQLSyntaxError("x"), "sql_syntax"),
            (ExecutionError("x"), "execution"),
            (ProtocolError("x"), "protocol"),
            (ReproError("x"), "internal"),
            (ValueError("x"), "internal"),  # outside the hierarchy
        ],
    )
    def test_code_for_exception(self, exc, code):
        assert wire_code_for(exc) == code

    def test_roundtrip_reconstructs_class_and_message(self):
        exc = error_from_wire(
            wire_code_for(AdmissionError("overloaded")), "overloaded"
        )
        assert isinstance(exc, AdmissionError)
        assert str(exc) == "overloaded"

    def test_unknown_code_degrades_to_repro_error(self):
        exc = error_from_wire("from_the_future", "boom")
        assert type(exc) is ReproError
        assert "from_the_future" in str(exc) and "boom" in str(exc)

    def test_fresh_copy_preserves_attributes(self):
        from repro.errors import RawDataError

        original = RawDataError("bad row", row=17)
        duplicate = fresh_copy(original)
        assert duplicate is not original
        assert isinstance(duplicate, RawDataError)
        assert str(duplicate) == "bad row" and duplicate.row == 17
        assert duplicate.__traceback__ is None
