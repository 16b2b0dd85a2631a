"""The wire protocol end-to-end: a real asyncio server over localhost,
blocking clients, row-for-row identity with the in-process path,
multiplexed cursors on one connection, the CLOSE/lock-lifetime contract
over the socket, error-code round-trips, the handshake stub, protocol
conformance against hand-rolled foreign peers (bad versions, the
reserved 0x05 frame), connection capping and stream capping, the client
connection pool, and a concurrent socket stress run sharing one
service's adaptive state."""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

import repro.client
from repro import (
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
    generate_csv,
    uniform_table_spec,
)
from repro.client import ConnectionPool
from repro.datatypes import DataType
from repro.errors import (
    BudgetError,
    CatalogError,
    CursorClosedError,
    PlanningError,
    ProtocolError,
    ServiceError,
    StreamLimitError,
)
from repro.executor.result import batch_rows
from repro.server.encoding import decode_binary_rows
from repro.server.protocol import (
    MIN_FRAME_BYTES,
    FrameType,
    encode_frame,
    read_frame_blocking,
)

SQL = "SELECT a0, a1 FROM t WHERE a2 < 500000"

QUERIES = [
    SQL,
    "SELECT SUM(a2) AS s FROM t WHERE a1 < 600000",
    "SELECT a0, a3 FROM t WHERE a2 < 150000",
    "SELECT COUNT(*) AS n FROM t WHERE a3 < 400000",
]


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=6, n_rows=4_000, seed=99)
    )
    return path, schema


@pytest.fixture
def served(table_csv):
    """A service with one table behind a started wire server."""
    path, schema = table_csv
    config = PostgresRawConfig(batch_size=128, stream_queue_batches=2)
    with PostgresRawService(config) as service:
        service.register_csv("t", path, schema)
        server = RawServer(service, port=0).start()
        try:
            yield service, server
        finally:
            server.stop()


def wire_connect(server, **kwargs):
    return repro.client.Connection("127.0.0.1", server.port, **kwargs)


def assert_nothing_leaked(service, server, timeout=10.0):
    """Every connection torn down, no cursor or scheduler slot held."""
    deadline = time.monotonic() + timeout
    while server.connection_stats()["open"]:
        assert time.monotonic() < deadline, "connection never torn down"
        time.sleep(0.01)
    assert service.cursor_stats()["open"] == 0
    stats = service.scheduler.stats()
    assert stats["active"] == 0 and stats["waiting"] == 0


def assert_write_lock_free(service, table, timeout=5.0):
    """The table's exclusive lock is takeable within ``timeout``."""
    lock = service.table_lock(table)
    acquired = threading.Event()

    def taker():
        lock.acquire_write()
        acquired.set()
        lock.release_write()

    t = threading.Thread(target=taker, daemon=True)
    t.start()
    assert acquired.wait(timeout), f"write lock on {table!r} still held"
    t.join(timeout=timeout)


class TestWireIdentity:
    def test_socket_rows_match_in_process_rows(self, served):
        service, server = served
        reference = service.query(SQL).rows
        with wire_connect(server) as conn:
            assert conn.query(SQL).rows == reference

    def test_multi_batch_stream_is_batched_on_the_wire(self, served):
        service, server = served
        reference = service.query("SELECT a0 FROM t").rows
        with wire_connect(server) as conn:
            with conn.cursor("SELECT a0 FROM t") as cursor:
                batches = list(cursor.batches())
            assert len(batches) > 1  # 4000 rows / batch_size 128
            rows = [
                row for batch in batches
                for row in zip(batch.column("a0").to_pylist())
            ]
        assert rows == reference

    def test_every_query_shape_round_trips(self, served):
        service, server = served
        with wire_connect(server) as conn:
            for sql in QUERIES:
                assert conn.query(sql).rows == service.query(sql).rows

    def test_fetch_styles_agree_over_the_wire(self, served):
        service, server = served
        reference = service.query(SQL).rows
        with wire_connect(server) as conn:
            one_by_one = []
            with conn.cursor(SQL) as cursor:
                while True:
                    row = cursor.fetchone()
                    if row is None:
                        break
                    one_by_one.append(row)
            assert one_by_one == reference
            chunks = []
            with conn.cursor(SQL) as cursor:
                while True:
                    got = cursor.fetchmany(97)
                    chunks.extend(got)
                    if len(got) < 97:
                        break
            assert chunks == reference

    def test_mixed_types_and_nulls_round_trip(self, served, mixed_csv):
        # ints, floats, low-cardinality text, dates, booleans, NULLs.
        service, server = served
        path, schema = mixed_csv
        service.register_csv("m", path, schema)
        sql = "SELECT id, price, label, day, flag, qty FROM m"
        reference = service.query(sql).rows
        with wire_connect(server) as conn:
            got = conn.query(sql).rows
        assert got == reference
        assert any(v is None for row in got for v in row)  # NULLs kept


class TestWireLifecycle:
    def test_early_close_releases_server_side_cursor(self, served):
        service, server = served
        with wire_connect(server) as conn:
            cursor = conn.cursor("SELECT a0 FROM t")
            assert cursor.fetchone() is not None
            cursor.close()
            # The producing scan is gone: exclusive-path work (a write
            # lock) proceeds immediately, and no cursor stays open.
            assert service.cursor_stats()["open"] == 0
            assert_write_lock_free(service, "t")
            # The connection is immediately reusable.
            assert conn.query("SELECT COUNT(*) AS n FROM t").scalar() == 4000

    def test_closed_cursor_refuses_fetches(self, served):
        _, server = served
        with wire_connect(server) as conn:
            cursor = conn.cursor(SQL)
            cursor.close()
            with pytest.raises(CursorClosedError):
                cursor.fetchone()

    def test_new_cursor_leaves_active_stream_untouched(self, served):
        # Protocol v2: cursors multiplex — opening a second stream no
        # longer supersedes the first (the v1 sequential behavior).
        service, server = served
        reference = service.query(SQL).rows
        full = service.query("SELECT a0 FROM t").rows
        with wire_connect(server) as conn:
            first = conn.cursor("SELECT a0 FROM t")
            head = first.fetchone()
            second = conn.cursor(SQL)
            assert not first.closed
            assert second.fetchall().rows == reference
            assert [head] + first.fetchall().rows == full

    def test_connection_close_mid_stream_frees_service(self, served):
        service, server = served
        conn = wire_connect(server)
        cursor = conn.cursor("SELECT a0 FROM t")
        assert cursor.fetchone() is not None
        conn.close()  # closes the active stream first, then GOODBYE
        assert_write_lock_free(service, "t")
        assert service.cursor_stats()["open"] == 0

    def test_server_stop_leaves_no_leaked_slots_or_cursors(self, table_csv):
        path, schema = table_csv
        config = PostgresRawConfig(batch_size=128)
        with PostgresRawService(config) as service:
            service.register_csv("t", path, schema)
            server = RawServer(service, port=0).start()
            conn = wire_connect(server)
            cursor = conn.cursor("SELECT a0 FROM t")
            assert cursor.fetchone() is not None
            server.stop()  # client still holds an open stream
            assert service.cursor_stats()["open"] == 0
            stats = service.scheduler.stats()
            assert stats["active"] == 0 and stats["waiting"] == 0
            conn.close()

    def test_connection_stats_track_traffic(self, served):
        _, server = served
        with wire_connect(server) as conn:
            conn.query(SQL)
            stats = server.connection_stats()
            assert stats["open"] == 1
            assert stats["queries"] == 1
            assert stats["rows_sent"] > 0
            assert stats["frames_sent"] >= 3  # WELCOME + ROWSET + ROWS...
            (connection,) = stats["connections"]
            assert connection["queries"] == 1
            # bytes_sent counts every frame, control and ROWS_BIN alike.
            assert stats["bytes_sent"] == connection["bytes_sent"] > 0
            assert stats["bytes_per_s"] > 0
            assert "version" not in connection
            assert "encoding" not in connection


class TestMultiplexing:
    """Protocol v2: several cursors stream over one connection."""

    MUX_QUERIES = [
        "SELECT a0, a1 FROM t WHERE a2 < 500000",
        "SELECT a0 FROM t",
        "SELECT a1, a2 FROM t WHERE a0 < 700000",
    ]

    def test_multiplexed_cursors_match_separate_connections(self, served):
        # The acceptance gate: K cursors multiplexed on ONE connection
        # return row-identical results to K separate connections.
        service, server = served
        separate = []
        for sql in self.MUX_QUERIES:
            with wire_connect(server) as conn:
                separate.append(conn.query(sql).rows)
        with wire_connect(server) as conn:
            cursors = [conn.cursor(sql) for sql in self.MUX_QUERIES]
            assert conn.active_streams == len(cursors)
            # Round-robin consumption in odd chunks: frames for every
            # stream interleave through the demultiplexer.
            results: list[list] = [[] for _ in cursors]
            live = set(range(len(cursors)))
            while live:
                for i in sorted(live):
                    got = cursors[i].fetchmany(97)
                    results[i].extend(got)
                    if len(got) < 97:
                        live.discard(i)
            assert conn.active_streams == 0
        for got, reference in zip(results, separate):
            assert got == reference
        assert service.cursor_stats()["open"] == 0

    def test_threads_share_one_connection(self, served):
        service, server = served
        reference = {
            sql: service.query(sql).rows for sql in self.MUX_QUERIES
        }
        failures: list[str] = []
        with wire_connect(server) as conn:

            def worker(sql: str) -> None:
                try:
                    got = conn.cursor(sql).fetchall().rows
                    if got != reference[sql]:
                        failures.append(f"rows diverged for {sql!r}")
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(f"{sql!r}: {exc!r}")

            threads = [
                threading.Thread(target=worker, args=(sql,))
                for sql in self.MUX_QUERIES
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert failures == []

    def test_closing_one_stream_leaves_siblings_streaming(self, served):
        service, server = served
        reference = service.query(SQL).rows
        with wire_connect(server) as conn:
            keeper = conn.cursor(SQL)
            first = keeper.fetchone()
            victim = conn.cursor("SELECT a0 FROM t")
            victim.fetchone()
            victim.close()
            assert conn.active_streams == 1
            assert [first] + keeper.fetchall().rows == reference
        assert service.cursor_stats()["open"] == 0

    def test_stream_limit_enforced_client_side(self, table_csv):
        path, schema = table_csv
        with PostgresRawService(PostgresRawConfig()) as service:
            service.register_csv("t", path, schema)
            with RawServer(
                service, port=0, max_streams_per_connection=2
            ) as server:
                with wire_connect(server) as conn:
                    assert conn.max_streams == 2
                    a = conn.cursor("SELECT a0 FROM t")
                    b = conn.cursor("SELECT a1 FROM t")
                    with pytest.raises(StreamLimitError, match="2 streams"):
                        conn.cursor("SELECT a2 FROM t")
                    a.close()  # room again
                    c = conn.cursor("SELECT a2 FROM t")
                    assert len(c.fetchall().rows) == 4000
                    b.close()

    def test_stream_limit_enforced_server_side(self, tmp_path):
        # A raw v2 speaker that ignores the advertised max_streams: the
        # server answers the over-limit QUERY with a stream_limit ERROR
        # and keeps the other streams healthy.  Streams 1 and 2 must
        # still run when QUERY 3 is read: each result is over twice
        # what the server's socket send buffer grows to (4 MiB by
        # default) and the client reads nothing before its third
        # QUERY, so neither can finish first.
        wmem = 4 << 20
        try:
            with open("/proc/sys/net/ipv4/tcp_wmem") as f:
                wmem = max(wmem, int(f.read().split()[-1]))
        except OSError:
            pass
        path = tmp_path / "t.csv"
        # 6 INTEGER columns: more than 48 bytes a row on the wire.
        n_rows = 2 * wmem // 48
        schema = generate_csv(
            path, uniform_table_spec(n_attrs=6, n_rows=n_rows, seed=99)
        )
        config = PostgresRawConfig(batch_size=128)
        with PostgresRawService(config) as service:
            service.register_csv("t", path, schema)
            with RawServer(
                service, port=0, max_streams_per_connection=2
            ) as server:
                raw = _RawWireClient(server.port)
                try:
                    raw.send(_RawWireClient.HELLO, {"version": 2})
                    _, welcome = raw.read()
                    assert welcome["max_streams"] == 2
                    for qid in (1, 2, 3):
                        raw.send(3, {"qid": qid, "sql": "SELECT * FROM t"})
                    code = None
                    for _ in range(10_000):  # drain until the refusal
                        ftype, payload = raw.read()
                        if ftype == 7:  # ERROR
                            code = payload["code"]
                            assert payload["qid"] == 3
                            break
                    assert code == "stream_limit"
                finally:
                    raw.close()
            assert server.connection_stats()["streams_refused"] == 1


class _RawWireClient:
    """Hand-rolled framing for protocol-conformance tests (no client
    library in the way — frames exactly as a wire peer would emit)."""

    HELLO, QUERY, CLOSE, GOODBYE = 0x01, 0x03, 0x08, 0x09

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.reader = self.sock.makefile("rb")

    def send(self, ftype: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.sock.sendall(
            struct.pack("!I", len(body) + 1) + bytes((ftype,)) + body
        )

    def read(self) -> tuple[int, dict | bytes]:
        """Next frame; ROWS_BIN (0x0A) bodies come back raw."""
        header = self.reader.read(4)
        assert len(header) == 4, "server hung up mid-conversation"
        (length,) = struct.unpack("!I", header)
        body = self.reader.read(length)
        assert len(body) == length
        if body[0] == FrameType.ROWS_BIN:
            return body[0], body[1:]
        return body[0], json.loads(body[1:].decode("utf-8"))

    def read_rows(self, rowset: dict) -> tuple[list, dict]:
        """Decode one stream's ROWS_BIN frames up to its END."""
        names = rowset["columns"]
        dtypes = [DataType(t) for t in rowset["types"]]
        rows: list = []
        while True:
            ftype, payload = self.read()
            if ftype == FrameType.END:
                return rows, payload
            assert ftype == FrameType.ROWS_BIN, f"got frame 0x{ftype:02x}"
            batch = decode_binary_rows(payload, names, dtypes)
            rows.extend(batch_rows(batch, names))

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class TestProtocolConformance:
    """One conversation: v2 HELLO, binary ROWS_BIN results.  A peer that
    speaks anything else gets a ``protocol`` ERROR, leaks no session,
    cursor or scheduler slot, and the next v2 connection still works.
    Frames are hand-rolled, as a foreign peer would send them."""

    @pytest.mark.parametrize(
        "hello",
        [
            {"version": 1},
            {"version": True},  # JSON true is a Python int: still no
            {"version": 0},
            {"version": "2"},
            {"version": 2.0},
            {},
        ],
    )
    def test_bad_hello_version_is_refused_before_a_session(
        self, served, hello
    ):
        service, server = served
        with wire_connect(server) as before:
            first_session = before.session_id
        raw = _RawWireClient(server.port)
        try:
            raw.send(_RawWireClient.HELLO, hello)
            ftype, payload = raw.read()
            assert ftype == FrameType.ERROR
            assert payload["code"] == "protocol"
            assert "version mismatch" in payload["message"]
        finally:
            raw.close()
        assert_nothing_leaked(service, server)
        with wire_connect(server) as after:
            # No session was opened for the refused peer.
            assert after.session_id == first_session + 1
            assert after.query("SELECT COUNT(*) AS n FROM t").scalar() == 4000

    def test_peer_sent_0x05_frame_is_a_protocol_error(self, served):
        # 0x05 was the JSON ROWS frame; the byte is reserved, so a peer
        # sending it mid-stream is an unknown frame type.
        service, server = served
        raw = _RawWireClient(server.port)
        try:
            raw.send(_RawWireClient.HELLO, {"version": 2})
            assert raw.read()[0] == FrameType.WELCOME
            raw.send(
                _RawWireClient.QUERY, {"qid": 1, "sql": "SELECT a0 FROM t"}
            )
            assert raw.read()[0] == FrameType.ROWSET
            raw.send(0x05, {"qid": 1, "rows": [[1]]})
            while True:  # drain the stream's frames up to the ERROR
                ftype, payload = raw.read()
                if ftype == FrameType.ERROR and payload["qid"] is None:
                    break
            assert payload["code"] == "protocol"
            assert "unknown frame type 0x05" in payload["message"]
        finally:
            raw.close()
        assert_nothing_leaked(service, server)
        assert_write_lock_free(service, "t")
        with wire_connect(server) as conn:
            assert conn.query("SELECT COUNT(*) AS n FROM t").scalar() == 4000

    def test_newer_client_is_answered_with_version_2(self, served):
        service, server = served
        raw = _RawWireClient(server.port)
        try:
            # An ``encodings`` offer is ignored: results are ROWS_BIN.
            raw.send(
                _RawWireClient.HELLO, {"version": 3, "encodings": ["json"]}
            )
            ftype, welcome = raw.read()
            assert ftype == FrameType.WELCOME
            assert welcome["version"] == 2
            assert set(welcome) == {
                "version",
                "session_id",
                "server",
                "max_streams",
            }
            raw.send(_RawWireClient.QUERY, {"qid": 1, "sql": SQL})
            ftype, rowset = raw.read()
            assert ftype == FrameType.ROWSET and rowset["qid"] == 1
            rows, end = raw.read_rows(rowset)
            assert end["rows"] == len(rows)
            assert rows == service.query(SQL).rows
            raw.send(_RawWireClient.GOODBYE, {})
        finally:
            raw.close()

    def test_close_mid_stream_still_acks_with_end(self, served):
        service, server = served
        raw = _RawWireClient(server.port)
        try:
            raw.send(_RawWireClient.HELLO, {"version": 2})
            raw.read()  # WELCOME
            raw.send(
                _RawWireClient.QUERY,
                {"qid": 9, "sql": "SELECT a0 FROM t"},
            )
            ftype, rowset = raw.read()
            assert ftype == FrameType.ROWSET
            raw.send(_RawWireClient.CLOSE, {"qid": 9})
            _, end = raw.read_rows(rowset)  # closed (or natural) END
            assert end["qid"] == 9
            raw.send(_RawWireClient.GOODBYE, {})
        finally:
            raw.close()
        assert_nothing_leaked(service, server)

    @pytest.mark.parametrize("version", [1, 3, True, "2"])
    def test_client_rejects_a_welcome_other_than_version_2(self, version):
        listener = socket.create_server(("127.0.0.1", 0))

        def fake_server() -> None:
            peer, _ = listener.accept()
            with peer, peer.makefile("rb") as reader:
                read_frame_blocking(reader, 1 << 20)  # HELLO
                welcome = {"version": version, "session_id": 1}
                peer.sendall(encode_frame(FrameType.WELCOME, welcome))
                reader.read()  # until the client hangs up

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="server speaks protocol"):
                repro.client.Connection(
                    "127.0.0.1", listener.getsockname()[1], timeout=10
                )
        finally:
            thread.join(timeout=10)
            listener.close()


class TestConnectionPool:
    def test_pool_queries_match_and_reuse_connections(self, served):
        service, server = served
        reference = service.query(SQL).rows
        with ConnectionPool(port=server.port, min_size=1, max_size=2) as pool:
            for _ in range(5):
                assert pool.query(SQL).rows == reference
            stats = pool.stats()
            assert stats["opened"] == 1  # every query reused the first
            assert stats["reused"] >= 4
            assert stats["idle"] == 1 and stats["in_use"] == 0

    def test_acquire_is_bounded_and_returns_connections(self, served):
        _, server = served
        with ConnectionPool(port=server.port, min_size=0, max_size=2) as pool:
            with pool.acquire() as a, pool.acquire() as b:
                assert a is not b
                assert pool.stats()["in_use"] == 2
                with pytest.raises(ServiceError, match="exhausted"):
                    pool.checkout(timeout=0.05)
            assert pool.stats()["in_use"] == 0
            # Released connections are handed out again.
            with pool.acquire() as again:
                assert again in (a, b)

    def test_stale_idle_connection_is_replaced_at_checkout(self, served):
        service, server = served
        reference = service.query(SQL).rows
        with ConnectionPool(port=server.port, min_size=1, max_size=2) as pool:
            with pool.acquire() as conn:
                pass
            conn._sock.shutdown(socket.SHUT_RDWR)  # simulate a dead peer
            assert pool.query(SQL).rows == reference
            stats = pool.stats()
            assert stats["stale_discarded"] == 1
            assert stats["opened"] == 2

    def test_connection_dying_in_use_is_retried_once(self, served):
        service, server = served
        reference = service.query(SQL).rows
        with ConnectionPool(port=server.port, min_size=1, max_size=2) as pool:
            with pool.acquire() as conn:
                pass
            # Kill the socket *behind* a health probe forced to pass:
            # the stale connection reaches query(), fails, and the
            # pool's retry-once path completes on a fresh connection.
            bound = conn.is_healthy
            conn.is_healthy = lambda: (
                setattr(conn, "is_healthy", bound) or True
            )
            conn._sock.shutdown(socket.SHUT_RDWR)
            assert pool.query(SQL).rows == reference
            assert pool.stats()["opened"] == 2

    def test_closed_pool_refuses_checkout(self, served):
        _, server = served
        pool = ConnectionPool(port=server.port, min_size=1, max_size=1)
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.checkout()


class TestWireErrors:
    def test_planning_error_round_trips(self, served):
        _, server = served
        with wire_connect(server) as conn:
            with pytest.raises(PlanningError, match="nope"):
                conn.query("SELECT nope FROM t")
            # The connection survives a failed query.
            assert conn.query("SELECT COUNT(*) AS n FROM t").scalar() == 4000

    def test_catalog_error_round_trips(self, served):
        _, server = served
        with wire_connect(server) as conn:
            with pytest.raises(CatalogError):
                conn.query("SELECT a0 FROM missing_table")

    def test_sql_syntax_error_round_trips(self, served):
        from repro.errors import SQLSyntaxError

        _, server = served
        with wire_connect(server) as conn:
            with pytest.raises(SQLSyntaxError):
                conn.query("SELEKT a0 FROM t")

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("SELECT a0 FROM t WHERE a0 = 99999999999999999999", "range"),
            ("SELECT 99999999999999999999", "range"),
            ("SELECT a0 FROM t WHERE a0 < 1.2.3", "malformed number"),
            ("SELECT 1e", "malformed number"),
        ],
    )
    def test_bad_literals_round_trip_as_syntax_errors(
        self, served, sql, message
    ):
        from repro.errors import SQLSyntaxError, wire_code_for

        _, server = served
        with wire_connect(server) as conn:
            with pytest.raises(SQLSyntaxError, match=message) as info:
                conn.query(sql)
            assert wire_code_for(info.value) == "sql_syntax"
            assert conn.query("SELECT COUNT(*) AS n FROM t").scalar() == 4000

    def test_unexpected_pump_error_still_sends_terminal_frame(
        self, served, monkeypatch
    ):
        # A codec/encoder bug inside the stream pump (past the batch
        # pull) must still terminate the stream with an ERROR frame —
        # not silently drop it and leave the client waiting forever.
        import repro.server.server as server_mod

        from repro.errors import ReproError

        def exploding_encoder(*args, **kwargs):
            raise RuntimeError("encoder exploded")
            yield  # pragma: no cover - generator shape only

        monkeypatch.setattr(
            server_mod, "iter_binary_row_frames", exploding_encoder
        )
        service, server = served
        with wire_connect(server) as conn:
            cursor = conn.cursor("SELECT a0 FROM t")
            with pytest.raises(ReproError, match="encoder exploded"):
                cursor.fetchall()
        assert service.cursor_stats()["open"] == 0

    def test_auth_token_stub(self, table_csv):
        path, schema = table_csv
        with PostgresRawService(PostgresRawConfig()) as service:
            service.register_csv("t", path, schema)
            server = RawServer(service, port=0, auth_token="sesame").start()
            try:
                with pytest.raises(ProtocolError, match="auth token"):
                    wire_connect(server)
                with pytest.raises(ProtocolError, match="auth token"):
                    wire_connect(server, token="wrong")
                with wire_connect(server, token="sesame") as conn:
                    assert conn.session_id is not None
            finally:
                server.stop()

    def test_max_connections_turns_extras_away(self, table_csv):
        path, schema = table_csv
        with PostgresRawService(PostgresRawConfig()) as service:
            service.register_csv("t", path, schema)
            server = RawServer(service, port=0, max_connections=2).start()
            try:
                first = wire_connect(server)
                second = wire_connect(server)
                with pytest.raises(ServiceError, match="max_connections"):
                    wire_connect(server)
                first.close()
                second.close()
            finally:
                server.stop()
            assert server.connection_stats()["rejected"] == 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("frame_bytes", MIN_FRAME_BYTES - 1),
            ("max_connections", 0),
            ("max_streams_per_connection", 0),
            ("port", -1),
            ("port", 65536),
        ],
    )
    def test_server_settings_are_checked(self, name, value):
        with PostgresRawService(PostgresRawConfig()) as service:
            with pytest.raises(BudgetError, match=f"^{name} must"):
                RawServer(service, **{name: value})


class TestWireStress:
    """The ISSUE's stress variant: many socket clients, one shared
    adaptive state, row-for-row identity under concurrency."""

    N_CLIENTS = 6
    ROUNDS = 3

    def test_concurrent_socket_clients_share_one_service(self, served):
        service, server = served
        reference = {sql: service.query(sql).rows for sql in QUERIES}
        start = threading.Barrier(self.N_CLIENTS + 1, timeout=60)
        failures: list[str] = []

        def client(idx: int) -> None:
            try:
                with wire_connect(server) as conn:
                    start.wait()
                    for round_no in range(self.ROUNDS):
                        for sql in QUERIES:
                            got = conn.query(sql).rows
                            if got != reference[sql]:
                                failures.append(
                                    f"client {idx} round {round_no}: "
                                    f"rows diverged for {sql!r}"
                                )
                        # Every other round, abandon a stream mid-way so
                        # CLOSE frames interleave with full streams.
                        if round_no % 2 == 0:
                            cursor = conn.cursor("SELECT a0 FROM t")
                            cursor.fetchone()
                            cursor.close()
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(f"client {idx}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join(timeout=120)
        assert failures == []
        # Accounting balances: every admitted query completed, every
        # cursor retired, no connection left open.
        stats = service.scheduler.stats()
        assert stats["active"] == 0 and stats["waiting"] == 0
        assert stats["admitted"] == stats["completed"]
        assert service.cursor_stats()["open"] == 0
        server_stats = server.connection_stats()
        assert server_stats["queries"] == self.N_CLIENTS * (
            self.ROUNDS * len(QUERIES) + 2  # + the abandoned streams
        )
