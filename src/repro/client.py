"""Blocking socket client for the repro wire protocol.

``repro.connect("raw://host:port/")`` opens one TCP connection to a
:class:`repro.server.RawServer` and returns a :class:`Connection`;
``connection.cursor(sql)`` streams a query through the very same lazy
:class:`repro.executor.result.Cursor` the in-process API hands out —
the only difference is that its batch source decodes ROWS_BIN frames
off the socket instead of pulling a local plan (or its producer
thread's :class:`BatchChannel`).  ``fetchone``/``fetchmany``/``fetchall``/
``batches`` therefore behave identically, and server-side failures
re-raise the *same* exception classes (:class:`repro.errors.AdmissionError`,
:class:`repro.errors.CursorTimeoutError`, ...) via their wire codes::

    import repro

    with repro.connect(f"raw://127.0.0.1:{server.port}/") as conn:
        with conn.cursor("SELECT a0 FROM t WHERE a1 < 100") as cur:
            for row in cur:
                ...
        result = conn.query("SELECT COUNT(*) AS n FROM t")  # materialized

There is one conversation (:mod:`repro.server.protocol`): the client
says HELLO with version 2, accepts only a version-2 WELCOME, and reads
results as typed binary column vectors (decoded column-at-a-time, no
per-value dispatch).  A connection is **multiplexed**: up to the
server's ``max_streams_per_connection`` cursors may be open at once,
each streaming independently.  Every frame carries its stream's qid;
the connection demultiplexes — whichever cursor needs a frame reads
from the socket and routes frames for *other* streams into their
buffers, so cursors can be consumed in any order (including from
different threads).

One caveat follows from sharing a single socket: flow control is
per-connection, not per-stream.  Draining cursor B while cursor A
sits idle buffers A's routed frames client-side without bound (there
is no per-stream window in the protocol yet — see ROADMAP), so either
consume multiplexed cursors at comparable rates, or give genuinely
idle-for-long streams their own (pooled) connection.

Closing a cursor mid-stream sends CLOSE and drains that stream to its
END — on the server that closes the producing scan, releasing its
table locks, exactly like an in-process ``Cursor.close()``; the other
streams on the connection are untouched.

:class:`ConnectionPool` amortizes the per-connection TCP + handshake
cost across queries: a bounded pool of idle connections with
health-checked checkout and a retry-once-on-stale-socket ``query()``
helper, for benchmark and service consumers that issue many short
queries.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import threading
import time
from collections import deque
from typing import Iterator

from .batch import Batch
from .core.metrics import QueryMetrics
from .datatypes import DataType
from .errors import (
    BudgetError,
    ProtocolError,
    ServiceError,
    StreamLimitError,
    error_from_wire,
    fresh_copy,
)
from .executor.result import Cursor, QueryResult
from .server.encoding import decode_binary_rows
from .server.protocol import (
    DEFAULT_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameType,
    encode_frame,
    read_frame_blocking,
)

#: Result frames may exceed the request-frame bound when a single row
#: alone is larger than ``frame_bytes`` (the server cannot split it);
#: the client therefore reads with this much slack before declaring the
#: stream broken.
_READ_SLACK = 64


class _StreamBuffer:
    """Frames received for one stream but not yet consumed by it."""

    __slots__ = ("frames",)

    def __init__(self) -> None:
        self.frames: deque = deque()


class Connection:
    """One handshaken wire connection owning one server-side session."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: str | None = None,
        timeout: float | None = None,
        frame_bytes: int = DEFAULT_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._max_read = frame_bytes * _READ_SLACK
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._qids = itertools.count(1)
        self._send_lock = threading.Lock()
        # One condition guards the stream table and elects the reader:
        # whichever cursor needs a frame next reads the socket and
        # routes what it finds; everyone else waits on the condition.
        self._io = threading.Condition()
        self._reading = False
        self._streams: dict[int, _StreamBuffer] = {}
        self._cursors: dict[int, Cursor] = {}
        #: qids used by STATS exchanges: demuxed like streams but not
        #: counted against ``max_streams`` (the server agrees).
        self._stats_qids: set[int] = set()
        self._broken: BaseException | None = None
        self.closed = False
        self.session_id: int | None = None
        self.max_streams: int = 1
        self.queries_issued = 0
        hello: dict = {"version": PROTOCOL_VERSION}
        if token is not None:
            hello["token"] = token
        try:
            self._send(FrameType.HELLO, hello)
            # Handshake is strictly sequential: read WELCOME directly.
            frame = read_frame_blocking(self._reader, self._max_read)
            if frame is None:
                raise ProtocolError("server closed the connection")
            ftype, payload = frame
            if ftype is FrameType.ERROR:
                raise error_from_wire(
                    payload.get("code", "internal"), payload.get("message", "")
                )
            if ftype is not FrameType.WELCOME:
                raise ProtocolError(f"expected WELCOME, got {ftype.name}")
            version = payload.get("version")
            if type(version) is not int or version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server speaks protocol {version!r}, "
                    f"client {PROTOCOL_VERSION}"
                )
            self.max_streams = payload.get("max_streams", 1)
            self.session_id = payload.get("session_id")
        except BaseException:
            self._teardown()
            raise

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def cursor(self, sql: str) -> Cursor:
        """Stream one SELECT; returns the standard lazy cursor.

        Cursors multiplex: several may be open on this connection at
        once (up to the server's advertised ``max_streams``), each
        streaming independently.  Beyond the limit this raises
        :class:`repro.errors.StreamLimitError` without a round trip —
        the server enforces the same bound.
        """
        if self.closed:
            raise ProtocolError("connection is closed")
        with self._io:
            if self._broken is not None:
                raise fresh_copy(self._broken) from self._broken
            open_queries = len(self._streams) - len(self._stats_qids)
            if open_queries >= self.max_streams:
                raise StreamLimitError(
                    f"connection already runs {open_queries} streams "
                    f"(max_streams={self.max_streams}); close a cursor or "
                    "use a ConnectionPool"
                )
            qid = next(self._qids)
            self._streams[qid] = _StreamBuffer()
        metrics = QueryMetrics()
        metrics.begin()
        try:
            self._send(FrameType.QUERY, {"qid": qid, "sql": sql})
            ftype, payload = self._frame_for(qid)
        except BaseException:
            self._drop_stream(qid)
            raise
        if ftype is FrameType.ERROR:
            self._drop_stream(qid)
            raise error_from_wire(
                payload.get("code", "internal"), payload.get("message", "")
            )
        if ftype is not FrameType.ROWSET:
            self._drop_stream(qid)
            raise ProtocolError(f"expected ROWSET for qid={qid}")
        names = list(payload.get("columns", []))
        try:
            dtypes = [DataType(t) for t in payload.get("types", [])]
        except ValueError as exc:
            self._drop_stream(qid)
            raise ProtocolError(f"unknown column type from server: {exc}")
        stream = _MuxBatches(self, qid, names, dtypes)
        cursor = Cursor(names, dtypes, stream, metrics)
        with self._io:
            self._cursors[qid] = cursor
        self.queries_issued += 1
        return cursor

    def query(self, sql: str) -> QueryResult:
        """Execute and materialize (``cursor(sql).fetchall()``)."""
        cursor = self.cursor(sql)
        try:
            return cursor.fetchall()
        finally:
            cursor.close()

    @property
    def active_streams(self) -> int:
        """How many query streams are currently open (STATS exchanges
        do not count — they share the demux, not the stream budget)."""
        with self._io:
            return len(self._streams) - len(self._stats_qids)

    # ------------------------------------------------------------------
    # Engine observability (the STATS command).
    # ------------------------------------------------------------------

    def stats(self, trace_id: str | None = None) -> dict:
        """One-shot engine stats snapshot over the wire.

        Returns the server's STATS payload: ``{"qid", "stats"}`` where
        ``stats`` is the engine's full telemetry-registry snapshot
        (counters, gauges, histograms, component collectors).  Pass a
        ``trace_id`` (as stamped on a drained cursor's ``trace_id``, or
        carried by an ERROR frame) to also get that query's span tree
        under ``"trace"``.
        """
        qid = self._open_stats_qid()
        try:
            request: dict = {"qid": qid}
            if trace_id is not None:
                request["trace"] = trace_id
            self._send(FrameType.STATS, request)
            ftype, payload = self._frame_for(qid)
            if ftype is FrameType.ERROR:
                raise error_from_wire(
                    payload.get("code", "internal"),
                    payload.get("message", ""),
                )
            if ftype is not FrameType.STATS:
                raise ProtocolError(
                    f"expected STATS for qid={qid}, got {ftype.name}"
                )
            return payload
        finally:
            self._drop_stream(qid)

    def stats_stream(self, interval_s: float | None = None) -> "StatsStream":
        """Subscribe to server-pushed stats snapshots.

        The server re-sends its registry snapshot every ``interval_s``
        seconds (its ``STATS_INTERVAL_S``, 1 s, when ``None``) until the
        stream is closed; iterate the returned :class:`StatsStream`::

            with conn.stats_stream(interval_s=0.5) as updates:
                for snap in updates:
                    ...

        The subscription rides its own qid and does not count against
        ``max_streams``, so a dashboard can watch a connection that is
        also streaming queries.
        """
        qid = self._open_stats_qid()
        request: dict = {"qid": qid, "subscribe": True}
        if interval_s is not None:
            request["interval_s"] = interval_s
        try:
            self._send(FrameType.STATS, request)
        except BaseException:
            self._drop_stream(qid)
            raise
        return StatsStream(self, qid)

    def _open_stats_qid(self) -> int:
        if self.closed:
            raise ProtocolError("connection is closed")
        with self._io:
            if self._broken is not None:
                raise fresh_copy(self._broken) from self._broken
            qid = next(self._qids)
            self._streams[qid] = _StreamBuffer()
            self._stats_qids.add(qid)
        return qid

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every active stream, say GOODBYE, hang up."""
        if self.closed:
            return
        try:
            with self._io:
                cursors = list(self._cursors.values())
            for cursor in cursors:
                if not cursor.closed:
                    cursor.close()
            self._send(FrameType.GOODBYE, {})
        except (OSError, ProtocolError):
            pass  # the server may already be gone; hang up regardless
        finally:
            self._teardown()

    def is_healthy(self) -> bool:
        """Cheap staleness probe for pooled reuse.

        A healthy idle connection is open, unbroken, has no streams in
        flight, and its socket shows neither EOF nor unread bytes (a
        desynced conversation).  Never blocks.
        """
        if self.closed or self._broken is not None:
            return False
        with self._io:
            if self._streams:
                return False
        try:
            self._sock.settimeout(0)
            try:
                self._sock.recv(1, socket.MSG_PEEK)
            finally:
                self._sock.settimeout(self._timeout)
        except (BlockingIOError, InterruptedError):
            return True  # nothing to read: the socket is simply idle
        except OSError:
            return False
        # Readable while idle: either EOF (b"") or desync junk.
        return False

    def _teardown(self) -> None:
        self.closed = True
        with self._io:
            if self._broken is None:
                self._broken = ProtocolError("connection is closed")
            self._io.notify_all()
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"Connection({self.host}:{self.port}, session "
            f"{self.session_id}, {self.queries_issued} queries, {state})"
        )

    # ------------------------------------------------------------------
    # Wire plumbing (the demultiplexer; used by _MuxBatches).
    # ------------------------------------------------------------------

    def _send(self, ftype: FrameType, payload: dict) -> None:
        frame = encode_frame(ftype, payload)
        with self._send_lock:
            self._sock.sendall(frame)

    def _drop_stream(self, qid: int) -> None:
        with self._io:
            self._streams.pop(qid, None)
            self._cursors.pop(qid, None)
            self._stats_qids.discard(qid)
            self._io.notify_all()

    def _frame_for(self, qid: int) -> tuple[FrameType, dict]:
        """Next frame belonging to stream ``qid``.

        The demultiplexer: if the stream's buffer is empty, this thread
        becomes the connection's reader (at most one at a time), pulls
        frames off the socket and routes them to their streams' buffers
        until one lands in ours.  Waiting threads are woken on every
        routed frame, so concurrent cursors make progress no matter
        which of them happens to hold the socket.
        """
        while True:
            with self._io:
                while True:
                    if self._broken is not None:
                        raise fresh_copy(self._broken) from self._broken
                    buffer = self._streams.get(qid)
                    if buffer is None:
                        raise ProtocolError(
                            f"stream qid={qid} is not open on this connection"
                        )
                    if buffer.frames:
                        return buffer.frames.popleft()
                    if not self._reading:
                        self._reading = True
                        break
                    self._io.wait()
            try:
                frame = read_frame_blocking(self._reader, self._max_read)
            except BaseException as exc:
                with self._io:
                    self._reading = False
                    if self._broken is None:
                        self._broken = exc
                    self._io.notify_all()
                raise
            with self._io:
                self._reading = False
                if frame is None:
                    broken = ProtocolError("server closed the connection")
                    if self._broken is None:
                        self._broken = broken
                    self._io.notify_all()
                    raise broken
                ftype, payload = frame
                fqid = payload.get("qid")
                target = (
                    self._streams.get(fqid)
                    if isinstance(fqid, int)
                    else None
                )
                if target is None:
                    # A frame for a stream nobody owns (or a
                    # connection-level ERROR): the conversation is
                    # broken for every stream.
                    if ftype is FrameType.ERROR:
                        broken = error_from_wire(
                            payload.get("code", "internal"),
                            payload.get("message", ""),
                        )
                    else:
                        broken = ProtocolError(
                            f"frame for unknown qid={fqid} "
                            f"({ftype.name})"
                        )
                    if self._broken is None:
                        self._broken = broken
                    self._io.notify_all()
                    raise broken
                target.frames.append(frame)
                self._io.notify_all()
            # Loop: the routed frame may or may not have been ours.


class _MuxBatches:
    """Batch iterator decoding one stream's ROWS_BIN/END/ERROR frames.

    Mirrors :class:`repro.service.streaming._ChannelBatches`: a plain
    iterator whose ``close()`` abandons the stream even when iteration
    never started — here by sending CLOSE and draining *this stream's*
    frames to its END/ERROR, leaving the connection's other streams
    untouched.
    """

    __slots__ = ("_conn", "_qid", "_names", "_dtypes", "_finished")

    def __init__(
        self,
        conn: Connection,
        qid: int,
        names: list[str],
        dtypes: list[DataType],
    ) -> None:
        self._conn = conn
        self._qid = qid
        self._names = names
        self._dtypes = dtypes
        self._finished = False

    def __iter__(self) -> Iterator[Batch]:
        return self

    def __next__(self) -> Batch:
        if self._finished:
            raise StopIteration
        try:
            ftype, payload = self._conn._frame_for(self._qid)
        except BaseException:
            self._finish()  # a broken stream cannot continue
            raise
        if ftype is FrameType.END:
            self._stamp_trace(payload.get("trace"))
            self._finish()
            raise StopIteration
        if ftype is FrameType.ERROR:
            self._stamp_trace(payload.get("trace"))
            self._finish()
            err = error_from_wire(
                payload.get("code", "internal"), payload.get("message", "")
            )
            if payload.get("trace") is not None:
                err.trace_id = payload["trace"]
            raise err
        if ftype is FrameType.ROWS_BIN:
            return decode_binary_rows(
                payload["data"], self._names, self._dtypes
            )
        self._finish()
        raise ProtocolError(f"unexpected {ftype.name} frame in stream")

    def _stamp_trace(self, trace_id: str | None) -> None:
        """Terminal frames carry the query's trace id; put it on the
        cursor so callers can fetch the span tree via ``conn.stats``."""
        if trace_id is None:
            return
        with self._conn._io:
            cursor = self._conn._cursors.get(self._qid)
        if cursor is not None:
            cursor.trace_id = trace_id

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._conn._drop_stream(self._qid)

    def close(self) -> None:
        """Abandon the stream: CLOSE, then drain it to its END/ERROR."""
        if self._finished:
            return
        conn = self._conn
        if conn.closed or conn._broken is not None:
            self._finish()
            return
        try:
            conn._send(FrameType.CLOSE, {"qid": self._qid})
            while True:
                ftype, _ = conn._frame_for(self._qid)
                if ftype in (FrameType.END, FrameType.ERROR):
                    return  # natural or closed END — either ends it
                if ftype is not FrameType.ROWS_BIN:
                    raise ProtocolError(
                        f"unexpected {ftype.name} frame while closing"
                    )
        finally:
            self._finish()


class StatsStream:
    """Iterator over one STATS subscription's pushed snapshots.

    Yields the server's STATS payloads (``{"qid", "stats"}``) as they
    arrive; :meth:`close` cancels the subscription (CLOSE, drained to
    the acking END), leaving the connection's query streams untouched.
    """

    def __init__(self, conn: Connection, qid: int) -> None:
        self._conn = conn
        self._qid = qid
        self._finished = False

    def __iter__(self) -> "StatsStream":
        return self

    def __next__(self) -> dict:
        if self._finished:
            raise StopIteration
        try:
            ftype, payload = self._conn._frame_for(self._qid)
        except BaseException:
            self._finish()
            raise
        if ftype is FrameType.STATS:
            return payload
        if ftype is FrameType.END:
            self._finish()
            raise StopIteration
        if ftype is FrameType.ERROR:
            self._finish()
            raise error_from_wire(
                payload.get("code", "internal"), payload.get("message", "")
            )
        self._finish()
        raise ProtocolError(
            f"unexpected {ftype.name} frame in stats stream"
        )

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._conn._drop_stream(self._qid)

    def close(self) -> None:
        """Cancel the subscription and drain to the server's END ack."""
        if self._finished:
            return
        conn = self._conn
        if conn.closed or conn._broken is not None:
            self._finish()
            return
        try:
            conn._send(FrameType.CLOSE, {"qid": self._qid})
            while True:
                ftype, _ = conn._frame_for(self._qid)
                if ftype in (FrameType.END, FrameType.ERROR):
                    return
                if ftype is not FrameType.STATS:
                    raise ProtocolError(
                        f"unexpected {ftype.name} frame while closing "
                        "stats stream"
                    )
        finally:
            self._finish()

    def __enter__(self) -> "StatsStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ConnectionPool:
    """A bounded pool of reusable wire connections.

    Opening a connection costs a TCP round trip, the HELLO/WELCOME
    handshake and a server-side session; consumers that issue many
    short queries (benchmarks, request handlers) amortize it here::

        pool = ConnectionPool(port=server.port, min_size=2, max_size=8)
        with pool.acquire() as conn:
            conn.query("SELECT COUNT(*) AS n FROM t")
        rows = pool.query("SELECT a0 FROM t WHERE a1 < 10").rows  # managed
        pool.close()

    ``min_size`` connections are opened eagerly; checkout hands out an
    idle connection after a health probe (closed, broken, mid-stream or
    EOF-ed sockets are discarded and replaced — the retry-once on a
    stale socket), opening fresh ones up to ``max_size`` before
    blocking.  :meth:`query` additionally retries once on a connection
    that dies mid-conversation.  Thread-safe.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5433,
        *,
        min_size: int = 1,
        max_size: int = 4,
        token: str | None = None,
        timeout: float | None = None,
        frame_bytes: int = DEFAULT_FRAME_BYTES,
    ) -> None:
        if min_size < 0:
            raise BudgetError("pool min_size must be >= 0")
        if max_size < 1 or max_size < min_size:
            raise BudgetError("pool max_size must be >= max(1, min_size)")
        self.host = host
        self.port = port
        self.min_size = min_size
        self.max_size = max_size
        self._connect_kwargs = dict(
            token=token, timeout=timeout, frame_bytes=frame_bytes
        )
        self._cond = threading.Condition()
        self._idle: list[Connection] = []
        self._size = 0  # idle + checked out
        self.closed = False
        self.connections_opened = 0
        self.checkouts_reused = 0
        self.stale_discarded = 0
        try:
            for _ in range(min_size):
                conn = Connection(
                    self.host, self.port, **self._connect_kwargs
                )
                with self._cond:
                    self._size += 1
                    self.connections_opened += 1
                    self._idle.append(conn)
        except BaseException:
            # A later eager connect failing (server at max_connections,
            # network hiccup) must not leak the ones already opened.
            self.close()
            raise

    def checkout(self, timeout: float | None = None) -> Connection:
        """A healthy connection, opened fresh if the pool has room.

        Raises :class:`repro.errors.ServiceError` when the pool is
        closed or ``max_size`` connections stay checked out past
        ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        stale: list[Connection] = []
        try:
            with self._cond:
                while True:
                    if self.closed:
                        raise ServiceError("connection pool is closed")
                    while self._idle:
                        conn = self._idle.pop()
                        if conn.is_healthy():
                            self.checkouts_reused += 1
                            return conn
                        # Stale (server restarted, idle timeout, broken
                        # conversation): replace instead of handing out.
                        self.stale_discarded += 1
                        self._size -= 1
                        stale.append(conn)
                    if self._size < self.max_size:
                        self._size += 1  # reserve the slot, open outside
                        break
                    # One fixed deadline across wakeups: a waiter that
                    # keeps losing the race for released connections
                    # must still time out after ``timeout`` seconds
                    # total, not ``timeout`` per wakeup.
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise ServiceError(
                            f"connection pool exhausted: {self.max_size} "
                            f"connections checked out for {timeout}s"
                        )
                    self._cond.wait(timeout=remaining)
        finally:
            for conn in stale:
                conn.close()
        try:
            conn = Connection(
                self.host, self.port, **self._connect_kwargs
            )
        except BaseException:
            with self._cond:
                self._size -= 1
                self._cond.notify()
            raise
        with self._cond:
            self.connections_opened += 1
        return conn

    def release(self, conn: Connection) -> None:
        """Return a checked-out connection (idle if still healthy)."""
        with self._cond:
            if not self.closed and conn.is_healthy():
                self._idle.append(conn)
                self._cond.notify()
                return
            self._size -= 1
            self._cond.notify()
        conn.close()

    @contextlib.contextmanager
    def acquire(self, timeout: float | None = None):
        """``with pool.acquire() as conn:`` — checkout + guaranteed
        release."""
        conn = self.checkout(timeout)
        try:
            yield conn
        finally:
            self.release(conn)

    def query(self, sql: str) -> QueryResult:
        """Execute on a pooled connection, retrying once on a stale
        socket (a connection that died between health probe and use)."""
        try:
            with self.acquire() as conn:
                return conn.query(sql)
        except (ConnectionError, OSError, ProtocolError):
            # The dead connection was discarded by release(); one fresh
            # attempt.  Server-side *query* failures raise their own
            # classes (CatalogError, PlanningError, ...) and do not
            # take this path.
            with self.acquire() as conn:
                return conn.query(sql)

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "size": self._size,
                "idle": len(self._idle),
                "in_use": self._size - len(self._idle),
                "opened": self.connections_opened,
                "reused": self.checkouts_reused,
                "stale_discarded": self.stale_discarded,
            }

    def close(self) -> None:
        """Close every idle connection and refuse new checkouts
        (checked-out connections close on release)."""
        with self._cond:
            if self.closed:
                return
            self.closed = True
            idle, self._idle = self._idle, []
            self._size -= len(idle)
            self._cond.notify_all()
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"ConnectionPool({self.host}:{self.port}, "
            f"{stats['idle']} idle / {stats['size']} open, "
            f"max {self.max_size}{', closed' if self.closed else ''})"
        )
