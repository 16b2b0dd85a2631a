"""The wire-protocol query server: sockets in front of the service.

:class:`RawServer` is an asyncio socket server fronting one
:class:`repro.service.PostgresRawService`.  Each accepted connection
owns one :class:`repro.service.Session` and a **stream table**: up to
``max_streams_per_connection`` concurrent query streams, each with its
own cursor pump task.  The pumps share the connection's socket through
one FIFO write lock acquired per ROWS_BIN frame, so frames from
concurrently producing streams interleave fairly (round-robin among the
streams with a frame ready) instead of one stream monopolizing the
pipe.  The flow-control domains still compose
end-to-end:

* inside the service, each producing scan is throttled by its bounded
  :class:`repro.service.streaming.BatchChannel` (``stream_queue_batches``
  deep, ``cursor_ttl_s`` abandoning stalled consumers);
* on the wire, ``await writer.drain()`` throttles every pump against
  the client's TCP receive window.

A client that stops reading stalls ``drain()``, which stops the pumps
pulling batches, which fills the channels, which blocks the producers —
and after ``cursor_ttl_s`` each producer abandons its query and
releases its table locks.  The in-process lock-lifetime contract
carries over the wire unchanged.

There is one conversation (:mod:`repro.server.protocol`, version 2):
JSON control frames, and results as ROWS_BIN typed column vectors
(:mod:`repro.server.encoding`) — there is nothing to negotiate.

Blocking service calls (admission, planning, batch pulls, cursor
close) run on worker threads; the event loop only ever parses frames
and writes sockets, so hundreds of connections multiplex over one loop
while at most ``max_concurrent_queries`` producers run.

Use it embedded (tests, benchmarks)::

    server = RawServer(service, port=0).start()  # background event loop
    ... repro.connect(f"raw://127.0.0.1:{server.port}/") ...
    server.stop()

or standalone (``make serve``)::

    python -m repro.server --data t=t.csv --port 5433
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..errors import (
    BudgetError,
    CursorClosedError,
    ProtocolError,
    ReproError,
    ServiceError,
    StreamLimitError,
    wire_code_for,
)
from ..service.service import PostgresRawService, Session
from .encoding import iter_binary_row_frames
from .protocol import (
    DEFAULT_FRAME_BYTES,
    MIN_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameType,
    encode_frame,
    read_frame,
)

#: Default period (seconds) of a STATS push subscription; a subscriber
#: may ask for another one per subscription.
STATS_INTERVAL_S = 1.0


@dataclass
class _Stream:
    """One multiplexed query stream on a connection."""

    qid: int
    sql: str
    task: "asyncio.Task | None" = None
    cursor: object | None = field(default=None, repr=False)
    close_requested: bool = False


@dataclass
class _Connection:
    """Book-keeping for one live client connection."""

    conn_id: int
    peer: str
    opened_monotonic: float
    task: "asyncio.Task | None" = None
    session: Session | None = None
    queries: int = 0
    frames_sent: int = 0
    rows_sent: int = 0
    bytes_sent: int = 0
    last_ttfb_s: float | None = None
    streams: dict[int, _Stream] = field(default_factory=dict)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Live STATS push subscriptions by qid.  Not counted
    #: against ``max_streams`` — a dashboard watching the engine must
    #: never crowd out the queries it is watching.
    stats_subs: dict[int, "asyncio.Task"] = field(default_factory=dict)


class RawServer:
    """Serve one :class:`PostgresRawService` over TCP.

    ``port=0`` binds an ephemeral port, reported by :attr:`port`.
    Clients beyond ``max_connections`` get a fast ERROR frame; row
    frames are split under ``frame_bytes`` and larger incoming frames
    are a protocol error; a QUERY beyond ``max_streams_per_connection``
    open streams gets :class:`repro.errors.StreamLimitError`.  When
    ``auth_token`` is set, HELLO must carry it.
    """

    def __init__(
        self,
        service: PostgresRawService,
        *,
        host: str = "127.0.0.1",
        port: int = 5433,
        max_connections: int = 64,
        frame_bytes: int = DEFAULT_FRAME_BYTES,
        max_streams_per_connection: int = 8,
        auth_token: str | None = None,
    ) -> None:
        if not (0 <= port <= 65535):
            raise BudgetError("port must be in [0, 65535]")
        if max_connections < 1:
            raise BudgetError("max_connections must be >= 1")
        if frame_bytes < MIN_FRAME_BYTES:
            raise BudgetError(f"frame_bytes must be >= {MIN_FRAME_BYTES}")
        if max_streams_per_connection < 1:
            raise BudgetError("max_streams_per_connection must be >= 1")
        self.service = service
        self.host = host
        self.requested_port = port
        self.max_connections = max_connections
        self.frame_bytes = frame_bytes
        self.max_streams_per_connection = max_streams_per_connection
        self.auth_token = auth_token
        self.port: int | None = None  # bound port, set by start
        # Dedicated worker pool for blocking service calls, sized so
        # every stream always has a worker.  The loop's *default*
        # executor is min(32, cpus + 4) threads — on small hosts that
        # deadlocks under load: every worker can end up parked in a
        # query-open (waiting for a table lock a streaming producer
        # holds) while the one batch-pull that would drain that producer
        # sits queued with no worker, until cursor_ttl_s breaks the
        # cycle.  With multiplexing each connection can park up to
        # max_streams opens at once, so the bound scales with both
        # knobs; ThreadPoolExecutor spawns lazily, so idle capacity
        # costs nothing.
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_connections * self.max_streams_per_connection
            + 4,
            thread_name_prefix="repro-wire",
        )
        self._server: asyncio.AbstractServer | None = None
        self._stopped = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._conn_ids = itertools.count(1)
        self._connections: dict[int, _Connection] = {}
        self._stats_lock = threading.Lock()
        self._started_monotonic: float | None = None
        self.connections_accepted = 0
        self.connections_rejected = 0
        self.connections_closed = 0
        self.queries_served = 0
        self.streams_refused = 0
        self.frames_sent = 0
        self.rows_sent = 0
        self.errors_sent = 0
        self.bytes_sent = 0
        # The connections panel and the STATS command both read the
        # server through the engine-wide registry snapshot.
        self.service.telemetry.registry.register_collector(
            "server", self.connection_stats
        )

    # ------------------------------------------------------------------
    # Lifecycle (async core).
    # ------------------------------------------------------------------

    async def start_async(self) -> "RawServer":
        """Bind and start accepting (on the running event loop)."""
        if self._server is not None:
            raise ServiceError("server already started")
        if self._stopped:
            # The worker pool is gone; a rebind would accept connections
            # whose every query fails.  One RawServer = one lifetime.
            raise ServiceError("server was stopped; build a new RawServer")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        return self

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, then close every live
        connection (their handlers close every open stream's cursor on
        the way out, so no scheduler slot or table lock outlives the
        server)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        with self._stats_lock:
            live = list(self._connections.values())
        tasks = [conn.task for conn in live if conn.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Handlers are gone; their in-flight cursor closes are done or
        # queued on the worker pool — the shutdown below waits for
        # them, so no cursor or slot leaks.
        self._stopped = True
        self._executor.shutdown(wait=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the standalone ``__main__`` entry)."""
        if self._server is None:
            await self.start_async()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Lifecycle (blocking wrappers: background event-loop thread).
    # ------------------------------------------------------------------

    def start(self) -> "RawServer":
        """Start serving on a dedicated event-loop thread and return
        once the port is bound (``server.port`` is then set)."""
        if self._thread is not None:
            raise ServiceError("server already started")
        if self._stopped:
            raise ServiceError("server was stopped; build a new RawServer")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.start_async(), self._loop
        )
        try:
            future.result(timeout=30)
        except BaseException:
            self._shutdown_loop()
            raise
        return self

    def stop(self) -> None:
        """Blocking graceful shutdown of a :meth:`start`-ed server."""
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.aclose(), self._loop)
        try:
            future.result(timeout=30)
        finally:
            self._shutdown_loop()

    def _shutdown_loop(self) -> None:
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        if loop is not None and not loop.is_running():
            loop.close()

    def __enter__(self) -> "RawServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        if len(self._connections) >= self.max_connections:
            # Turned away *before* any service state is touched: the
            # socket-level analogue of fast admission rejection.  Read
            # the client's HELLO first — closing with unread bytes in
            # the receive buffer would RST the socket and the kernel
            # could discard the ERROR frame before the client reads it.
            with self._stats_lock:
                self.connections_rejected += 1
            try:
                await asyncio.wait_for(
                    read_frame(reader, self.frame_bytes), timeout=2.0
                )
            except (ProtocolError, ConnectionError, asyncio.TimeoutError):
                pass
            await self._try_send_error(
                writer,
                None,
                ServiceError(
                    f"server at max_connections={self.max_connections}"
                ),
                conn=None,
            )
            writer.close()
            return
        conn = _Connection(
            conn_id=next(self._conn_ids),
            peer=peer,
            opened_monotonic=time.monotonic(),
            task=asyncio.current_task(),
        )
        # Registry mutations share _stats_lock with connection_stats():
        # the panel iterates this dict from arbitrary threads.
        with self._stats_lock:
            self._connections[conn.conn_id] = conn
            self.connections_accepted += 1
        # Bounded: a client spraying frames stalls its own reader task
        # (TCP backpressure) instead of growing server memory.
        frames: asyncio.Queue = asyncio.Queue(maxsize=32)
        pump = asyncio.create_task(self._pump_frames(reader, frames))
        try:
            if not await self._handshake(conn, frames, writer):
                return
            await self._request_loop(conn, frames, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished: cleanup below is all that matters
        except ProtocolError as exc:
            await self._try_send_error(writer, None, exc, conn)
        except asyncio.CancelledError:
            # Server shutdown: finish via cleanup and end *quietly* —
            # re-raising would make asyncio.streams' connection_made
            # callback log every handler as a crashed task.
            pass
        finally:
            pump.cancel()
            try:
                await self._shutdown_streams(conn)
            except asyncio.CancelledError:
                pass  # shielded closes still finish on their threads
            with self._stats_lock:
                self._connections.pop(conn.conn_id, None)
                self.connections_closed += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _call(self, fn, *args):
        """Run a blocking service call on the server's own worker pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args)
        )

    async def _pump_frames(
        self, reader: asyncio.StreamReader, frames: asyncio.Queue
    ) -> None:
        """Single reader task per connection: decoded frames flow into a
        queue so the request loop sees CLOSEs while streams run."""
        try:
            while True:
                frame = await read_frame(reader, self.frame_bytes)
                await frames.put(frame)
                if frame is None:
                    return
        except ProtocolError as exc:
            await frames.put(exc)
        except (ConnectionError, asyncio.IncompleteReadError):
            await frames.put(None)

    @staticmethod
    async def _next_frame(frames: asyncio.Queue):
        """Next decoded frame; EOF -> None; reader errors re-raised."""
        frame = await frames.get()
        if isinstance(frame, ProtocolError):
            raise frame
        return frame

    async def _handshake(
        self, conn: _Connection, frames: asyncio.Queue, writer
    ) -> bool:
        frame = await self._next_frame(frames)
        if frame is None:
            return False
        ftype, payload = frame
        if ftype is not FrameType.HELLO:
            raise ProtocolError(f"expected HELLO, got {ftype.name}")
        # HELLO is input from outside the program: the version must be a
        # real int (JSON ``true`` is a Python int) of at least ours.  A
        # newer client is answered with the one version we speak.
        version = payload.get("version")
        if (
            not isinstance(version, int)
            or isinstance(version, bool)
            or version < PROTOCOL_VERSION
        ):
            await self._send_error(
                writer,
                None,
                ProtocolError(
                    f"protocol version mismatch: client {version!r}, "
                    f"server speaks {PROTOCOL_VERSION}"
                ),
                conn,
            )
            return False
        if (
            self.auth_token is not None
            and payload.get("token") != self.auth_token
        ):
            await self._send_error(
                writer, None, ProtocolError("auth token rejected"), conn
            )
            return False
        try:
            conn.session = self.service.session()
        except ReproError as exc:
            await self._send_error(writer, None, exc, conn)
            return False
        welcome = {
            "version": PROTOCOL_VERSION,
            "session_id": conn.session.session_id,
            "server": "repro-postgresraw",
            "max_streams": self.max_streams_per_connection,
        }
        await self._send(writer, conn, FrameType.WELCOME, welcome)
        return True

    # ------------------------------------------------------------------
    # Request loop + stream table (the multiplexing core).
    # ------------------------------------------------------------------

    async def _request_loop(
        self, conn: _Connection, frames: asyncio.Queue, writer
    ) -> None:
        """Consume client frames; QUERYs spawn stream pumps, CLOSEs
        interrupt them.  The loop never blocks on a stream, so a CLOSE
        (or GOODBYE) lands even while every stream is producing."""
        while True:
            frame = await self._next_frame(frames)
            if frame is None:
                return  # client hung up without GOODBYE; same cleanup
            ftype, payload = frame
            if ftype is FrameType.GOODBYE:
                return
            if ftype is FrameType.CLOSE:
                sub = conn.stats_subs.pop(payload.get("qid"), None)
                if sub is not None:
                    # A stats subscription ends like a stream: cancel
                    # the pusher, ack with END {closed: true}.
                    sub.cancel()
                    await self._send(
                        writer,
                        conn,
                        FrameType.END,
                        {"qid": payload.get("qid"), "rows": 0, "closed": True},
                    )
                    continue
                self._handle_close(conn, payload)
                continue
            if ftype is FrameType.STATS:
                await self._handle_stats(conn, writer, payload)
                continue
            if ftype is not FrameType.QUERY:
                raise ProtocolError(
                    f"unexpected {ftype.name} frame from client"
                )
            await self._start_query(conn, writer, payload)

    async def _start_query(
        self, conn: _Connection, writer, payload: dict
    ) -> None:
        qid = payload.get("qid")
        sql = payload.get("sql")
        if not isinstance(qid, int) or not isinstance(sql, str):
            raise ProtocolError("QUERY frame needs an int qid and a str sql")
        if qid in conn.streams:
            raise ProtocolError(
                f"qid={qid} is already streaming on this connection"
            )
        max_streams = self.max_streams_per_connection
        if len(conn.streams) >= max_streams:
            with self._stats_lock:
                self.streams_refused += 1
            await self._send_error(
                writer,
                qid,
                StreamLimitError(
                    f"connection already runs {len(conn.streams)} streams "
                    f"(max_streams_per_connection={max_streams}); "
                    "close a cursor first"
                ),
                conn,
            )
            return
        stream = _Stream(qid=qid, sql=sql)
        conn.streams[qid] = stream
        stream.task = asyncio.create_task(
            self._run_stream(conn, writer, stream)
        )

    def _handle_close(self, conn: _Connection, payload: dict) -> None:
        """CLOSE {qid}: interrupt that stream's pump.

        Only thread-safe channel state is touched here — the stream's
        pump task owns the cursor object, notices the aborted source on
        its next pull (a blocked pull unblocks immediately) and answers
        with ``END {closed: true}``.  A CLOSE for a stream that already
        ended is silently ignored: its natural END is in flight.
        """
        stream = conn.streams.get(payload.get("qid"))
        if stream is None:
            return
        stream.close_requested = True
        cursor = stream.cursor
        if cursor is not None:
            cursor.abort_stream()

    # ------------------------------------------------------------------
    # STATS: one-shot snapshots and server-push subscriptions.
    # ------------------------------------------------------------------

    async def _handle_stats(
        self, conn: _Connection, writer, payload: dict
    ) -> None:
        """STATS {qid, trace?, subscribe?, interval_s?}.

        One-shot by default: answer with a single STATS frame carrying
        the engine's registry snapshot (and, when ``trace`` names a
        retained trace id, that query's span tree).  With ``subscribe``
        truthy, start a push task that re-sends the snapshot every
        ``interval_s`` until the client CLOSEs the qid.
        """
        qid = payload.get("qid")
        if not isinstance(qid, int):
            raise ProtocolError("STATS frame needs an int qid")
        if qid in conn.streams or qid in conn.stats_subs:
            raise ProtocolError(
                f"qid={qid} is already in use on this connection"
            )
        if payload.get("subscribe"):
            interval = payload.get("interval_s")
            if not isinstance(interval, (int, float)) or interval <= 0:
                interval = STATS_INTERVAL_S
            conn.stats_subs[qid] = asyncio.create_task(
                self._push_stats(conn, writer, qid, float(interval))
            )
            return
        snap = await self._call(self._stats_payload, payload.get("trace"))
        await self._send(writer, conn, FrameType.STATS, {"qid": qid, **snap})

    def _stats_payload(self, trace_id: str | None = None) -> dict:
        """The STATS frame body: registry snapshot (+ optional trace)."""
        telemetry = self.service.telemetry
        body: dict = {"stats": telemetry.snapshot()}
        if trace_id is not None:
            body["trace"] = telemetry.tracer.trace_dict(trace_id)
        return body

    async def _push_stats(
        self, conn: _Connection, writer, qid: int, interval: float
    ) -> None:
        """One subscription's push loop; dies with the connection."""
        try:
            while True:
                snap = await self._call(self._stats_payload, None)
                await self._send(
                    writer, conn, FrameType.STATS, {"qid": qid, **snap}
                )
                await asyncio.sleep(interval)
        except (ConnectionError, OSError):
            pass  # client vanished; the handler tears the rest down
        except asyncio.CancelledError:
            raise

    async def _run_stream(
        self, conn: _Connection, writer, stream: _Stream
    ) -> None:
        """One stream's pump: open the cursor, stream ROWSET/ROWS/END.

        Admission control, reconcile and planning run on a worker
        thread, so a queue wait never stalls the loop — and other
        streams on the same connection keep flowing while this one
        waits for a slot or a table lock.
        """
        qid = stream.qid
        session = conn.session
        open_task = asyncio.ensure_future(
            self._call(session.cursor, stream.sql)
        )
        try:
            cursor = await asyncio.shield(open_task)
        except asyncio.CancelledError:
            # Cancelled (connection teardown) while the worker thread is
            # mid-open: the thread cannot be interrupted and may hand
            # back a live cursor holding a scheduler slot and table
            # locks.  Wait it out and park the cursor on the stream so
            # _shutdown_streams reaps it — never leak the open.
            try:
                stream.cursor = await open_task
            except Exception:
                pass  # the open itself failed: nothing to reap
            raise
        except Exception as exc:  # any failure maps to a wire code
            conn.streams.pop(qid, None)
            await self._try_send_error(writer, qid, exc, conn)
            return
        stream.cursor = cursor
        conn.queries += 1
        with self._stats_lock:
            self.queries_served += 1
        rows_sent = 0
        closed = False
        # The query's trace was opened service-side; parent the socket
        # writes under its root so the span tree covers wire delivery
        # (while the ring still retains the trace).
        tracer = self.service.telemetry.tracer
        trace_id = cursor.trace_id
        wire_span = tracer.span_for_trace(trace_id, "wire:frames", qid=qid)
        try:
            await self._send(
                writer,
                conn,
                FrameType.ROWSET,
                {
                    "qid": qid,
                    "columns": cursor.column_names,
                    "types": [t.value for t in cursor.column_types],
                },
            )
            if stream.close_requested:
                closed = True  # CLOSE raced the open; serve the ack only
            batches = cursor.batches()
            while not closed:
                try:
                    batch = await self._call(next, batches, None)
                except CursorClosedError:
                    if stream.close_requested:
                        closed = True
                        break
                    raise
                except Exception as exc:
                    # Producer-side failure (TTL, racing drop, raw-data
                    # error) after some batches may already be out: the
                    # ERROR frame takes the END's place — with the
                    # cursor retired first, like END, so the terminal
                    # frame means the server-side stream is fully gone.
                    conn.streams.pop(qid, None)
                    await self._retire_stream(conn, stream)
                    await self._send_error(writer, qid, exc, conn)
                    return
                if batch is None:
                    break
                wire_frames = iter_binary_row_frames(
                    qid,
                    batch,
                    cursor.column_names,
                    cursor.column_types,
                    self.frame_bytes,
                )
                for wire_frame in wire_frames:
                    # One FIFO lock acquisition per frame: concurrent
                    # streams' pumps take turns, so ROWS_BIN frames
                    # round-robin among every stream with one ready.
                    # drain() under the lock is the consumer side of
                    # the bounded channel — TCP backpressure throttles
                    # the pulls, the pulls throttle the producing scan.
                    async with conn.write_lock:
                        writer.write(wire_frame)
                        await writer.drain()
                    self._note_frame(conn, len(wire_frame))
                rows_sent += batch.num_rows
                conn.rows_sent += batch.num_rows
                with self._stats_lock:
                    self.rows_sent += batch.num_rows
                if stream.close_requested:
                    closed = True
            # Retire the cursor *and* the stream-table entry *before*
            # the END frame: a client that saw END knows the
            # server-side cursor, its scheduler slot and its table
            # locks are gone (the wire analogue of ``Cursor.close()``
            # returning only after the producer released), and a QUERY
            # it issues right after END can never be refused by a
            # stream-limit count still holding this finished stream —
            # even while this pump is suspended in the END drain.  The
            # finally below is then a no-op backstop.
            conn.streams.pop(qid, None)
            await self._retire_stream(conn, stream)
            await self._send(
                writer,
                conn,
                FrameType.END,
                {
                    "qid": qid,
                    "rows": rows_sent,
                    "closed": closed,
                    "trace": trace_id,
                },
            )
        except (ConnectionError, OSError):
            pass  # client vanished; the handler tears everything down
        except Exception as exc:
            # Anything unexpected past the batch-pull (an encoder bug,
            # a codec limit like the 4 GiB TEXT offset range): the
            # client must still see a terminal frame for this qid, or
            # its cursor would wait forever on a stream the server has
            # silently dropped.  Stream entry and cursor retired first,
            # as everywhere.  (CancelledError is a BaseException and
            # passes through to the teardown path untouched.)
            conn.streams.pop(qid, None)
            await self._retire_stream(conn, stream)
            await self._try_send_error(writer, qid, exc, conn)
        finally:
            if wire_span is not None:
                tracer.end_span(wire_span, rows=rows_sent)
            conn.streams.pop(qid, None)
            await self._retire_stream(conn, stream)

    async def _retire_stream(
        self, conn: _Connection, stream: _Stream
    ) -> None:
        """Close a stream's cursor (idempotent) and record its
        time-to-first-batch for the connections panel."""
        cursor, stream.cursor = stream.cursor, None
        if cursor is None:
            return
        try:
            await asyncio.shield(self._call(cursor.close))
        except asyncio.CancelledError:
            raise
        except Exception:
            pass  # already surfaced to the client as an ERROR frame
        ttfb = cursor.metrics.time_to_first_batch
        if ttfb is not None:
            conn.last_ttfb_s = ttfb

    async def _shutdown_streams(self, conn: _Connection) -> None:
        """Connection teardown: stop every pump, reap every cursor."""
        for sub in conn.stats_subs.values():
            sub.cancel()
        conn.stats_subs.clear()
        me = asyncio.current_task()
        tasks = [
            stream.task
            for stream in list(conn.streams.values())
            if stream.task is not None and stream.task is not me
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Streams whose pump was cancelled mid-open parked their cursor
        # on the stream entry; everything else already retired itself.
        for stream in list(conn.streams.values()):
            try:
                await self._retire_stream(conn, stream)
            except asyncio.CancelledError:
                pass  # the shielded close still finishes on its thread
        conn.streams.clear()

    # ------------------------------------------------------------------
    # Frame writing.
    # ------------------------------------------------------------------

    def _note_frame(self, conn: _Connection | None, nbytes: int) -> None:
        if conn is not None:
            conn.frames_sent += 1
            conn.bytes_sent += nbytes
        with self._stats_lock:
            self.frames_sent += 1
            self.bytes_sent += nbytes

    async def _send(
        self, writer, conn: _Connection | None, ftype: FrameType, payload: dict
    ) -> None:
        frame = encode_frame(ftype, payload)
        if conn is not None:
            async with conn.write_lock:
                writer.write(frame)
                await writer.drain()
        else:
            writer.write(frame)
            await writer.drain()
        self._note_frame(conn, len(frame))

    async def _send_error(
        self, writer, qid: int | None, exc: BaseException, conn
    ) -> None:
        with self._stats_lock:
            self.errors_sent += 1
        payload = {
            "qid": qid,
            "code": wire_code_for(exc),
            "message": str(exc),
        }
        # Producer-side failures carry their query's trace id (stamped
        # in service._produce) so a client can pull the span tree of
        # the exact query that failed via STATS {trace: ...}.
        trace_id = getattr(exc, "trace_id", None)
        if trace_id is not None:
            payload["trace"] = trace_id
        await self._send(writer, conn, FrameType.ERROR, payload)

    async def _try_send_error(self, writer, qid, exc, conn) -> None:
        try:
            await self._send_error(writer, qid, exc, conn)
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Introspection (connections panel).
    # ------------------------------------------------------------------

    def connection_stats(self) -> dict[str, object]:
        """Server-wide counters plus one row per open connection."""
        now = time.monotonic()
        uptime = (
            now - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        with self._stats_lock:
            connections = [
                {
                    "id": conn.conn_id,
                    "peer": conn.peer,
                    "age_s": now - conn.opened_monotonic,
                    "queries": conn.queries,
                    "streams": len(conn.streams),
                    "max_streams": self.max_streams_per_connection,
                    "frames_sent": conn.frames_sent,
                    "rows_sent": conn.rows_sent,
                    "bytes_sent": conn.bytes_sent,
                    "last_ttfb_s": conn.last_ttfb_s,
                    "streaming": bool(conn.streams),
                }
                for conn in sorted(
                    self._connections.values(), key=lambda c: c.conn_id
                )
            ]
            return {
                "host": self.host,
                "port": self.port,
                "uptime_s": uptime,
                "open": len(connections),
                "max_connections": self.max_connections,
                "accepted": self.connections_accepted,
                "rejected": self.connections_rejected,
                "closed": self.connections_closed,
                "queries": self.queries_served,
                "streams_refused": self.streams_refused,
                "frames_sent": self.frames_sent,
                "rows_sent": self.rows_sent,
                "errors_sent": self.errors_sent,
                "frames_per_s": self.frames_sent / uptime if uptime else 0.0,
                "bytes_sent": self.bytes_sent,
                "bytes_per_s": self.bytes_sent / uptime if uptime else 0.0,
                "connections": connections,
            }
