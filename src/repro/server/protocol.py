"""The wire protocol spoken between :mod:`repro.server` and
:mod:`repro.client`.

A deliberately small, length-prefixed framed protocol (version 2, the
only version) — one frame is::

    +----------------+------------+--------------------------------+
    | length (4B BE) | type (1B)  | payload (JSON, or ROWS_BIN)    |
    +----------------+------------+--------------------------------+

where ``length`` counts the type byte plus the payload.  There is one
conversation: control payloads are JSON (debuggable with ``tcpdump``,
dependency-free; Python's encoder round-trips ``NaN``/``Infinity``
floats), and result rows travel only as typed binary columnar
``ROWS_BIN`` frames (:mod:`repro.server.encoding`), so no result value
is turned back into text at the socket::

    client                                server
    HELLO {version, token?}   -->
                              <--  WELCOME {version: 2, session_id,
                                           server, max_streams}
    QUERY {qid, sql}          -->
                              <--  ROWSET {qid, columns, types}
                              <--  ROWS_BIN                 (repeated)
                              <--  END {qid, rows, closed}
    CLOSE {qid}               -->  (abandon stream qid early;
                              <--   END {qid, closed: true} acks it)
    STATS {qid, trace?}       -->  (one-shot stats snapshot)
                              <--  STATS {qid, stats, trace?}
    STATS {qid, subscribe:    -->  (server-push subscription)
           true, interval_s?}
                              <--  STATS {qid, stats}   (repeated every
                                   interval until CLOSE {qid}, acked by
                                   END {qid, closed: true})
    GOODBYE {}                -->  (connection closes)

HELLO's ``version`` must be an int (not a bool) of at least
``PROTOCOL_VERSION``; anything else is answered with a ``protocol``
ERROR before a session exists, and a newer client is answered with
``PROTOCOL_VERSION``.

The conversation is **multiplexed**: qids are on every frame, so a
client may hold up to ``max_streams_per_connection`` QUERYs open at
once and the server interleaves their ROWS_BIN frames fairly; the
client demultiplexes by qid.

An ERROR frame ``{qid?, code, message}`` may replace ROWSET (the query
failed to admit/parse/plan), interrupt a ROWS_BIN stream (the producing
scan failed mid-flight), or reject a QUERY beyond the stream limit
(code ``stream_limit``); ``code`` is a stable string from
:func:`repro.errors.wire_code_for`, so the client re-raises the
matching exception class.  A CLOSE for a stream that already ended is
silently ignored (the natural END is already in flight — the client
drains to it), which makes the close race benign.

Frames are bounded by ``frame_bytes``: outgoing ROWS_BIN frames are
*split* (:func:`repro.server.encoding.iter_binary_row_frames` gives
each frame the longest run of rows whose exact encoded size fits —
one size check per batch, a bisection over prefix sums only when the
batch is over the bound), and incoming frames over the limit are
rejected as a :class:`repro.errors.ProtocolError` instead of buffered
without bound.
"""

from __future__ import annotations

import enum
import json
import struct
from typing import BinaryIO

from ..errors import ProtocolError
from .encoding import peek_qid

#: Protocol revision carried in HELLO/WELCOME: the only one spoken.
PROTOCOL_VERSION = 2

#: Floor for ``frame_bytes``: a wire frame must always fit the
#: protocol's control payloads plus at least one row's framing overhead.
MIN_FRAME_BYTES = 1024

#: Default upper bound (bytes) on one frame's payload, on both ends.
DEFAULT_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct("!I")
_HEADER_BYTES = _HEADER.size


class FrameType(enum.IntEnum):
    """One byte on the wire; grouped by direction."""

    HELLO = 0x01  # client -> server: {version, token?}
    WELCOME = 0x02  # server -> client: {version, session_id, server,
    #                 max_streams}
    QUERY = 0x03  # client -> server: {qid, sql}
    ROWSET = 0x04  # server -> client: {qid, columns, types}
    # 0x05 is reserved (the retired JSON ROWS frame) and never reused:
    # a peer that sends it gets the "unknown frame type" ProtocolError.
    END = 0x06  # server -> client: {qid, rows, closed}
    ERROR = 0x07  # server -> client: {qid?, code, message}
    CLOSE = 0x08  # client -> server: {qid}
    GOODBYE = 0x09  # client -> server: {}
    ROWS_BIN = 0x0A  # server -> client: binary columnar payload
    #                  (repro.server.encoding)
    STATS = 0x0B  # both directions.  client -> server:
    #               {qid, trace?, subscribe?, interval_s?}; server ->
    #               client: {qid, stats, trace?} — a telemetry-registry
    #               snapshot, one-shot or pushed every interval_s.


def encode_frame(ftype: FrameType, payload: dict) -> bytes:
    """One wire frame: header + type byte + JSON payload."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body) + 1) + bytes((int(ftype),)) + body


def decode_payload(ftype_byte: int, body: bytes) -> tuple[FrameType, dict]:
    """Parse a frame's type byte + body (header already consumed).

    JSON frames decode to their payload dict.  ROWS_BIN frames stay
    opaque — the payload is ``{"qid": ..., "data": <raw body>}`` so
    the demultiplexer can route on qid without paying the columnar
    decode until the owning cursor consumes the frame.
    """
    try:
        ftype = FrameType(ftype_byte)
    except ValueError:
        raise ProtocolError(f"unknown frame type 0x{ftype_byte:02x}") from None
    if ftype is FrameType.ROWS_BIN:
        return ftype, {"qid": peek_qid(body), "data": body}
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            f"undecodable {ftype.name} payload: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"{ftype.name} payload must be a JSON object")
    return ftype, payload


def read_frame_blocking(
    stream: BinaryIO, max_bytes: int
) -> tuple[FrameType, dict] | None:
    """Read one frame from a blocking file-like socket stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on a truncated or oversized frame.
    """
    header = stream.read(_HEADER_BYTES)
    if not header:
        return None
    if len(header) < _HEADER_BYTES:
        raise ProtocolError("connection died mid frame header")
    (length,) = _HEADER.unpack(header)
    if length < 1:
        raise ProtocolError("frame with no type byte")
    if length - 1 > max_bytes:
        raise ProtocolError(
            f"incoming frame of {length - 1} bytes exceeds "
            f"frame_bytes={max_bytes}"
        )
    body = stream.read(length)
    if len(body) < length:
        raise ProtocolError("connection died mid frame body")
    return decode_payload(body[0], body[1:])


async def read_frame(reader, max_bytes: int) -> tuple[FrameType, dict] | None:
    """Async twin of :func:`read_frame_blocking` over an
    ``asyncio.StreamReader``."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection died mid frame header") from None
    (length,) = _HEADER.unpack(header)
    if length < 1:
        raise ProtocolError("frame with no type byte")
    if length - 1 > max_bytes:
        raise ProtocolError(
            f"incoming frame of {length - 1} bytes exceeds "
            f"frame_bytes={max_bytes}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection died mid frame body") from None
    return decode_payload(body[0], body[1:])
