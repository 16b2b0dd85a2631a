"""End-to-end streaming: cursors from the chunk merge to the session.

Covers the lock-lifetime contract (shared/exclusive locks held while the
cursor is open, released on exhaustion/close/TTL), identity between the
streamed and materialized paths, time-to-first-batch accounting, and the
drop/refresh-vs-open-cursor races."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    PostgresRawService,
    generate_csv,
    uniform_table_spec,
)
from repro.errors import (
    CatalogError,
    CursorInvalidError,
    CursorTimeoutError,
    UpdateConflictError,
)

SQL = "SELECT a0, a1 FROM t WHERE a2 < 500000"


@pytest.fixture
def own_csv(tmp_path):
    """A per-test raw file (mutable, unlike the session-scoped fixtures)."""
    path = tmp_path / "own.csv"
    spec = uniform_table_spec(n_attrs=6, n_rows=4_000, seed=77)
    schema = generate_csv(path, spec)
    return path, schema


def streaming_config(**overrides):
    base = dict(batch_size=64, stream_queue_batches=2)
    base.update(overrides)
    return PostgresRawConfig(**base)


class TestStreamedEqualsMaterialized:
    def test_cursor_rows_match_query_rows(self, small_csv):
        path, schema = small_csv
        config = PostgresRawConfig(batch_size=128)
        with PostgresRaw(PostgresRawConfig()) as reference_engine:
            reference_engine.register_csv("t", path, schema)
            reference = reference_engine.query(SQL).rows
        with PostgresRaw(config) as engine:
            engine.register_csv("t", path, schema)
            streamed = list(engine.query_stream(SQL))  # cold
            materialized = engine.query(SQL).rows      # warm
        assert streamed == reference
        assert materialized == reference

    def test_fetchmany_odd_sizes_equal_fetchall(self, small_csv):
        path, schema = small_csv
        with PostgresRaw(streaming_config()) as engine:
            engine.register_csv("t", path, schema)
            expected = engine.query(SQL).rows
            cursor = engine.query_stream(SQL)
            out = []
            while True:
                got = cursor.fetchmany(37)
                out.extend(got)
                if len(got) < 37:
                    break
            assert out == expected

    def test_aggregates_and_count_star_stream(self, small_csv):
        path, schema = small_csv
        with PostgresRaw(streaming_config()) as engine:
            engine.register_csv("t", path, schema)
            assert engine.query_stream(
                "SELECT COUNT(*) AS n FROM t"
            ).fetchall().scalar() == 5_000
            total = engine.query("SELECT SUM(a1) AS s FROM t").scalar()
            assert engine.query_stream(
                "SELECT SUM(a1) AS s FROM t"
            ).fetchall().scalar() == total


class TestTimeToFirstBatch:
    def test_ttfb_recorded_and_below_total(self, small_csv):
        path, schema = small_csv
        with PostgresRaw(streaming_config()) as engine:
            engine.register_csv("t", path, schema)
            cursor = engine.query_stream(SQL)
            first = cursor.fetchone()
            assert first is not None
            ttfb = cursor.metrics.time_to_first_batch
            assert ttfb is not None and ttfb > 0
            cursor.fetchall()
            assert cursor.metrics.total_seconds >= ttfb

    def test_service_aggregates_ttfb_and_open_counts(self, small_csv):
        path, schema = small_csv
        with PostgresRawService(streaming_config()) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            cursor = session.cursor(SQL)
            assert service.cursor_stats()["open"] == 1
            cursor.fetchone()
            cursor.close()
            stats = service.cursor_stats()
            assert stats["open"] == 0
            assert stats["opened"] == 1 and stats["finished"] == 1
            assert stats["avg_ttfb_s"] is not None
            # The concurrency panel surfaces both.
            from repro.monitor import render_concurrency_panel

            text = render_concurrency_panel(service)
            assert "cursors:" in text and "time-to-first-batch" in text


class TestLockLifetime:
    def test_open_cursor_holds_lock_until_closed(self, small_csv):
        path, schema = small_csv
        with PostgresRawService(streaming_config()) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            cursor = session.cursor(SQL)  # cold scan: exclusive path
            assert cursor.fetchone() is not None
            lock = service.table_lock("t")
            acquired = threading.Event()

            def writer():
                lock.acquire_write()
                acquired.set()
                lock.release_write()

            t = threading.Thread(target=writer)
            t.start()
            # The producing scan still holds the lock: the writer waits.
            assert not acquired.wait(timeout=0.3)
            cursor.close()
            assert acquired.wait(timeout=5)
            t.join(timeout=5)
            # And the table is fully usable afterwards.
            assert len(session.query(SQL)) == len(
                session.cursor(SQL).fetchall()
            )

    def test_close_before_first_fetch_releases_locks(self, small_csv):
        """A cursor closed without ever being iterated must still stop
        the producer and free its locks (regression: closing a
        never-started generator skips its finally)."""
        path, schema = small_csv
        with PostgresRawService(streaming_config()) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            cursor = session.cursor(SQL)  # producer blocks on the queue
            time.sleep(0.05)
            cursor.close()
            assert service.cursor_stats()["open"] == 0
            lock = service.table_lock("t")
            acquired = threading.Event()

            def writer():
                lock.acquire_write()
                acquired.set()
                lock.release_write()

            t = threading.Thread(target=writer)
            t.start()
            assert acquired.wait(timeout=5)
            t.join(timeout=5)

    def test_early_close_still_teaches_the_engine(self, small_csv):
        path, schema = small_csv
        with PostgresRawService(streaming_config()) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            cursor = session.cursor(SQL)
            cursor.fetchmany(100)  # a couple of batches, then hang up
            cursor.close()
            state = service.table_state("t")
            # The abandoned scan installed the row prefix it completed.
            assert state.positional_map.n_rows == 5_000
            assert any(
                c.rows > 0 for c in state.positional_map.entries()
            )
            assert session.query(SQL).rows  # engine fully consistent

    def test_stalled_consumer_abandoned_after_ttl(self, small_csv):
        path, schema = small_csv
        config = streaming_config(cursor_ttl_s=0.15, stream_queue_batches=1)
        with PostgresRawService(config) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            cursor = session.cursor(SQL)
            assert cursor.fetchone() is not None
            time.sleep(0.6)  # stall well past the TTL; producer gives up
            with pytest.raises(CursorTimeoutError):
                while cursor.fetchmany(64):
                    pass
            stats = service.cursor_stats()
            assert stats["abandoned"] == 1
            # Locks were released: the next query runs and is complete.
            assert len(session.query(SQL)) == len(
                PostgresRaw_reference(path, schema)
            )


def PostgresRaw_reference(path, schema):
    with PostgresRaw() as engine:
        engine.register_csv("t", path, schema)
        return engine.query(SQL).rows


class TestDropAndRefreshRaces:
    def test_drop_table_vs_open_cursor_is_always_clean(self, own_csv):
        path, schema = own_csv
        expected = None
        for _ in range(10):
            with PostgresRawService(streaming_config()) as service:
                service.register_csv("t", path, schema)
                session = service.session()
                if expected is None:
                    expected = session.query(SQL).rows
                else:
                    session.query(SQL)  # warm: cursor takes the read path
                cursor = session.cursor(SQL)
                dropped = threading.Event()

                def dropper():
                    try:
                        service.drop_table("t")
                    except CatalogError:
                        pass
                    dropped.set()

                t = threading.Thread(target=dropper)
                t.start()
                try:
                    rows = list(cursor)
                except (CursorInvalidError, CatalogError):
                    rows = None  # clean failure: acceptable outcome
                finally:
                    cursor.close()
                t.join(timeout=10)
                assert dropped.is_set()
                if rows is not None:
                    # Never partial, never another table's state: the
                    # winning cursor serves the complete, correct result.
                    assert rows == expected

    def test_refresh_rewrite_waits_for_open_cursor(self, own_csv, tmp_path):
        """An in-place rewrite under an open cursor: the cursor drains
        the old rows or fails with ``UpdateConflictError`` — it never
        mixes rows of the two files.  (The scan reads the byte ranges
        of each batch as it goes, so unlike a whole-file read up front
        it can meet the rewritten file; the reader's version check
        turns that into the typed error.)  Either way ``refresh`` waits
        for the cursor's lock and the next query sees the new file."""
        path, schema = own_csv
        with PostgresRawService(streaming_config()) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            expected_old = session.query(SQL).rows
            cursor = session.cursor(SQL)
            rows = [cursor.fetchone()]
            assert rows[0] is not None

            refreshed = threading.Event()

            def rewriter():
                # Rewrite the raw file, then force reconciliation: the
                # write lock makes this wait for the open cursor.
                spec = uniform_table_spec(n_attrs=6, n_rows=1_000, seed=5)
                generate_csv(path, spec)
                service.refresh("t")
                refreshed.set()

            t = threading.Thread(target=rewriter)
            t.start()
            try:
                rows.extend(cursor)  # drain: producer holds the shared lock
                assert rows == expected_old
            except UpdateConflictError:
                # What did arrive is a prefix of the old answer.
                assert rows == expected_old[: len(rows)]
            finally:
                cursor.close()
            t.join(timeout=30)
            assert refreshed.is_set()
            # After the rewrite reconciled, new queries see the new file.
            state = service.table_state("t")
            assert state.positional_map.n_rows in (0, 1_000)
            rows = session.query("SELECT a0 FROM t WHERE a0 >= 0")
            assert len(rows) == 1_000

    def test_generation_guard_rejects_dropped_and_rewritten_tables(
        self, own_csv
    ):
        path, schema = own_csv
        with PostgresRawService(streaming_config()) as service:
            service.register_csv("t", path, schema)
            state = service.table_state("t")
            lock = service.table_lock("t")
            tables = [("t", state, lock)]
            # Rewritten: generation moved on since the cursor was planned.
            with pytest.raises(CursorInvalidError):
                service._check_generations(
                    tables, {"t": state.generation - 1}
                )
            # Dropped: the registered state is no longer this one.
            service.drop_table("t")
            with pytest.raises(CursorInvalidError):
                service._check_generations(tables, {"t": state.generation})

    def test_service_close_force_closes_open_cursors(self, own_csv):
        path, schema = own_csv
        service = PostgresRawService(streaming_config())
        service.register_csv("t", path, schema)
        session = service.session()
        cursor = session.cursor(SQL)
        assert cursor.fetchone() is not None
        service.close()
        with pytest.raises(CursorInvalidError):
            while cursor.fetchmany(64):
                pass
        assert service.cursor_stats()["open"] == 0
