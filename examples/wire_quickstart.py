"""Wire-protocol quickstart / smoke: a real server, a real socket.

Boots a :class:`repro.RawServer` on localhost (ephemeral port) over a
freshly generated raw CSV, runs queries through the blocking
:mod:`repro.client` — materialized, streamed, abandoned mid-stream,
multiplexed (several cursors on one connection, results as binary
columnar ROWS_BIN frames), and via a
:class:`repro.client.ConnectionPool` — verifies row-for-row identity
with the in-process path, then shuts down and asserts nothing leaked:
no open cursors, no busy scheduler slots, no open connections.  CI
runs this as the wire smoke gate.

Run:  python examples/wire_quickstart.py
"""

import tempfile
from pathlib import Path

import repro
import repro.client
from repro import (
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
    generate_csv,
    uniform_table_spec,
)
from repro.monitor import render_connections_panel


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_wire_"))
    raw_file = workdir / "measurements.csv"
    spec = uniform_table_spec(n_attrs=8, n_rows=20_000, seed=7)
    schema = generate_csv(raw_file, spec)
    print(f"raw file: {raw_file} ({raw_file.stat().st_size / 1024:.0f} KiB)")

    config = PostgresRawConfig(batch_size=2048)
    with PostgresRawService(config) as service:
        service.register_csv("m", raw_file, schema)
        server = RawServer(service, port=0).start()
        print(f"server on {server.host}:{server.port}")
        try:
            sql = "SELECT a0, a1 FROM m WHERE a2 < 500000"
            reference = service.query(sql).rows

            with repro.connect(f"raw://127.0.0.1:{server.port}/") as conn:
                # Materialized over the wire == in-process, row for row.
                result = conn.query(sql)
                assert result.rows == reference, "wire rows diverged!"
                print(f"materialized: {len(result)} rows, identical rows")

                # Streamed: first rows arrive while the server produces.
                with conn.cursor(sql) as cursor:
                    first = cursor.fetchone()
                    rest = cursor.fetchall().rows
                assert [first] + rest == reference
                ttfb = cursor.metrics.time_to_first_batch
                print(
                    "streamed: first row after "
                    f"{ttfb * 1000:.1f} ms, {1 + len(rest)} rows total"
                )

                # Abandon a stream mid-way: CLOSE releases the server-
                # side cursor (and its table locks) immediately.
                cursor = conn.cursor("SELECT a0 FROM m")
                cursor.fetchone()
                cursor.close()
                assert service.cursor_stats()["open"] == 0
                print("abandoned stream closed server-side")

                # Multiplexed: three cursors on ONE connection, frames
                # demultiplexed by qid, results row-identical.
                mux_sql = [
                    sql,
                    "SELECT a3 FROM m WHERE a4 < 250000",
                    "SELECT a5, a6 FROM m WHERE a7 < 750000",
                ]
                cursors = [conn.cursor(s) for s in mux_sql]
                mux_rows = [c.fetchall().rows for c in reversed(cursors)]
                for s, rows in zip(reversed(mux_sql), mux_rows):
                    assert rows == service.query(s).rows, "mux diverged!"
                print(
                    f"multiplexed: {len(cursors)} cursors on one "
                    "connection, identical rows"
                )

            # Pooled connections skip the per-query connect cost.
            with repro.client.ConnectionPool(
                port=server.port, min_size=1, max_size=2
            ) as pool:
                for _ in range(4):
                    assert pool.query(sql).rows == reference
                stats = pool.stats()
                assert stats["opened"] == 1 and stats["reused"] >= 3
                print(
                    f"pool: {stats['reused']} checkouts reused "
                    f"{stats['opened']} connection"
                )

            print()
            print(render_connections_panel(server))
        finally:
            server.stop()

        # The smoke gate: clean shutdown leaks nothing.
        cursors = service.cursor_stats()
        sched = service.scheduler.stats()
        connections = server.connection_stats()
        assert cursors["open"] == 0, f"leaked cursors: {cursors}"
        assert sched["active"] == 0, f"leaked scheduler slots: {sched}"
        assert sched["waiting"] == 0, f"stuck waiters: {sched}"
        assert sched["admitted"] == sched["completed"], f"unbalanced: {sched}"
        assert connections["open"] == 0, f"leaked connections: {connections}"
    print()
    print("wire smoke OK: clean shutdown, no leaked cursors or slots")


if __name__ == "__main__":
    main()
