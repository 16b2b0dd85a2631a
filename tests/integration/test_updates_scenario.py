"""The demo's Updates scenario (paper §4.2) end to end.

"The user can either directly update one of the raw data files in an
append-like scenario using a text editor or simply give a pointer to a
new data file ... The user will be immediately able to query the new or
the updated file and observe the changes in the results of the next
queries."
"""

import os
import threading

import pytest

from repro import (
    Column,
    DataType,
    FileChange,
    PostgresRaw,
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
    TableSchema,
    append_csv_rows,
    connect,
    write_csv,
)
from repro.errors import RawDataError, UpdateConflictError

SCHEMA = TableSchema(
    [
        Column("k", DataType.INTEGER),
        Column("v", DataType.INTEGER),
    ]
)


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "live.csv"
    write_csv(path, [(i, i * 10) for i in range(100)], SCHEMA)
    eng = PostgresRaw(PostgresRawConfig(batch_size=32))
    eng.register_csv("live", path, SCHEMA)
    return eng, path


class TestAppendScenario:
    def test_next_query_sees_appended_rows(self, table):
        eng, path = table
        assert eng.query("SELECT COUNT(*) AS n FROM live").scalar() == 100
        append_csv_rows(path, [(100, 1000), (101, 1010)], SCHEMA)
        assert eng.query("SELECT COUNT(*) AS n FROM live").scalar() == 102
        result = eng.query("SELECT v FROM live WHERE k = 101")
        assert result.scalar() == 1010

    def test_append_preserves_old_structures(self, table):
        eng, path = table
        eng.query("SELECT v FROM live")  # cache + map cover 100 rows
        state = eng.table_state("live")
        assert state.cache.coverage_rows(1) == 100
        append_csv_rows(path, [(200, 2000)], SCHEMA)
        eng.query("SELECT v FROM live")
        # Structures extended, not rebuilt.
        assert state.cache.coverage_rows(1) == 101
        assert state.positional_map.coverage_rows(1) == 101

    def test_append_only_pays_for_tail(self, table):
        eng, path = table
        eng.query("SELECT v FROM live")
        append_csv_rows(path, [(300, 3000)], SCHEMA)
        result = eng.query("SELECT v FROM live")
        # One new row: conversion work is bounded by the tail, not the file.
        assert result.metrics.fields_converted <= 2
        assert len(result) == 101

    def test_multiple_appends(self, table):
        eng, path = table
        for i in range(5):
            append_csv_rows(path, [(1000 + i, i)], SCHEMA)
            n = eng.query("SELECT COUNT(*) AS n FROM live").scalar()
            assert n == 101 + i

    def test_refresh_reports_change(self, table):
        eng, path = table
        eng.query("SELECT COUNT(*) FROM live")
        append_csv_rows(path, [(5, 5)], SCHEMA)
        changes = eng.refresh()
        assert changes["live"] is FileChange.APPENDED

    def test_append_detected_mid_workload_with_filter(self, table):
        eng, path = table
        q = "SELECT v FROM live WHERE k >= 99"
        assert eng.query(q).column("v") == [990]
        append_csv_rows(path, [(99, 991)], SCHEMA)
        assert eng.query(q).column("v") == [990, 991]


class TestRewriteScenario:
    def test_pointer_to_new_data(self, table):
        """Rewriting the file = 'give a pointer to a new data file'."""
        eng, path = table
        eng.query("SELECT v FROM live")
        state = eng.table_state("live")
        assert state.cache.entry_count > 0
        write_csv(path, [(7, 70)], SCHEMA)  # brand new content
        result = eng.query("SELECT k, v FROM live")
        assert list(result) == [(7, 70)]
        # Everything was invalidated and relearned for the new file.
        assert state.positional_map.n_rows == 1

    def test_rewrite_invalidates_statistics(self, table):
        eng, path = table
        eng.query("SELECT v FROM live WHERE v > 0")
        old_max = eng.table_state("live").statistics.get("v").max_value
        assert old_max == 990
        write_csv(path, [(1, 5)], SCHEMA)
        eng.query("SELECT v FROM live WHERE v > 0")
        assert eng.table_state("live").statistics.get("v").max_value == 5

    def test_shrunk_file(self, table):
        eng, path = table
        eng.query("SELECT COUNT(*) FROM live")
        write_csv(path, [(i, i) for i in range(10)], SCHEMA)
        assert eng.query("SELECT COUNT(*) AS n FROM live").scalar() == 10

    def test_missing_file_raises(self, table):
        eng, path = table
        eng.query("SELECT COUNT(*) FROM live")
        path.unlink()
        with pytest.raises(RawDataError, match="disappeared"):
            eng.query("SELECT COUNT(*) FROM live")


# ----------------------------------------------------------------------
# Fault injection: the raw file shrinks under an open streaming cursor
# whose remaining batches still have positional-map jumps to make.
# ----------------------------------------------------------------------

WIDE = TableSchema(
    [
        Column("k", DataType.INTEGER),
        Column("v", DataType.INTEGER),
        Column("s", DataType.TEXT),
    ]
)
#: Selective, so ``k`` and ``s`` are never cached: every batch of every
#: run jumps through the positional map into the raw file.
JUMPS = "SELECT k, s FROM t WHERE v < 4"
OLD_ROWS = [(i, i % 7, f"text-{i}") for i in range(4_000)]
NEW_ROWS = [(i, i % 7, f"new-{i}") for i in range(300)]


def _answer(rows):
    return [(k, s) for k, v, s in rows if v < 4]


def _truncate(path):
    """Cut the file after its first 10 records (the inode survives)."""
    data = path.read_bytes()
    cut = 0
    for _ in range(11):  # header + 10 rows
        cut = data.index(b"\n", cut) + 1
    os.truncate(path, cut)
    return OLD_ROWS[:10]


def _overwrite_shorter(path):
    """Rewrite in place with a shorter file (the inode survives)."""
    write_csv(path, NEW_ROWS, WIDE)
    return NEW_ROWS


def _drain(cursor, rows, expected):
    """The contract: every old row, or a typed error after a prefix of
    them — never a row of the new file, never a crash."""
    try:
        rows.extend(cursor)
    except UpdateConflictError:
        assert rows == expected[: len(rows)]
    else:
        assert rows == expected
    finally:
        cursor.close()


def _assert_nothing_leaked(service):
    lock = service.table_lock("t")
    acquired = threading.Event()

    def taker():
        lock.acquire_write()
        acquired.set()
        lock.release_write()

    t = threading.Thread(target=taker, daemon=True)
    t.start()
    assert acquired.wait(5.0), "table lock still held"
    t.join(timeout=5.0)
    sched = service.scheduler.stats()
    assert sched["active"] == 0 and sched["waiting"] == 0
    assert sched["admitted"] == sched["completed"]
    assert service.cursor_stats()["open"] == 0
    state = service.table_state("t")
    assert service.governor.used_bytes == (
        state.positional_map.used_bytes + state.cache.used_bytes
    )


@pytest.fixture
def fault_service(tmp_path):
    path = tmp_path / "fault.csv"
    write_csv(path, OLD_ROWS, WIDE)
    config = PostgresRawConfig(
        batch_size=64,
        stream_queue_batches=2,
        memory_budget=64 << 20,
    )
    with PostgresRawService(config) as service:
        service.register_csv("t", path, WIDE)
        # Learn the map; the next run of JUMPS is all jumps.
        assert service.query(JUMPS).rows == _answer(OLD_ROWS)
        yield service, path


@pytest.mark.parametrize("shrink", [_truncate, _overwrite_shorter])
class TestFileShrinksUnderOpenCursor:
    def test_in_process_cursor(self, fault_service, shrink):
        service, path = fault_service
        session = service.session()
        cursor = session.cursor(JUMPS)
        rows = [cursor.fetchone()]
        assert rows == _answer(OLD_ROWS)[:1]
        # The producer is parked on a full 2-batch channel with ~60
        # batches of jumps still to make.
        new_rows = shrink(path)
        _drain(cursor, rows, _answer(OLD_ROWS))
        _assert_nothing_leaked(service)
        service.refresh("t")
        assert session.query(JUMPS).rows == _answer(new_rows)
        count = session.query("SELECT COUNT(*) FROM t").scalar()
        assert count == len(new_rows)
        _assert_nothing_leaked(service)

    def test_wire_cursor_and_the_server_survives(self, fault_service, shrink):
        service, path = fault_service
        with RawServer(service, port=0) as server:
            with connect(f"raw://127.0.0.1:{server.port}/") as conn:
                cursor = conn.cursor(JUMPS)
                rows = [cursor.fetchone()]
                assert rows == _answer(OLD_ROWS)[:1]
                new_rows = shrink(path)
                _drain(cursor, rows, _answer(OLD_ROWS))
                # Same connection, same server: the next statement
                # reconciles and answers from the new file.
                assert conn.query(JUMPS).rows == _answer(new_rows)
            with connect(f"raw://127.0.0.1:{server.port}/") as conn:
                assert conn.query("SELECT COUNT(*) FROM t").rows == [
                    (len(new_rows),)
                ]
        _assert_nothing_leaked(service)


def test_append_racing_an_open_cursor(fault_service):
    """``stat`` cannot tell an append from a longer in-place rewrite, so
    an append that lands while a cursor is open gets the same contract:
    the old rows or ``UpdateConflictError`` — and, appends being the
    supported update scenario, the next query simply sees the new rows
    (no ``refresh``, nothing invalidated)."""
    service, path = fault_service
    session = service.session()
    cursor = session.cursor(JUMPS)
    rows = [cursor.fetchone()]
    tail = [(4_000 + i, i % 7, f"tail-{i}") for i in range(50)]
    append_csv_rows(path, tail, WIDE)
    _drain(cursor, rows, _answer(OLD_ROWS))
    _assert_nothing_leaked(service)
    state = service.table_state("t")
    generation = state.generation
    assert session.query(JUMPS).rows == _answer(OLD_ROWS + tail)
    assert state.generation == generation  # reconciled as an append
    _assert_nothing_leaked(service)
