"""Drained statements run on the caller's thread.

``query()`` / ``execute()`` (and everything built on them:
``PostgresRaw.query``, ``build_mv``) pull the plan's batch generator
themselves: no producer thread, no channel.  Covered here:

* no ``repro-cursor-*`` thread is started and no ``BatchChannel`` is
  built for a drained statement (while a streamed cursor over a raw
  scan still gets both);
* the state learned by ``query()`` equals the state learned by draining
  a cursor over the same SQL — map chunks, cache entries, promoted
  columns and MV entries, through an append and a lagging-MV
  tail-merge;
* a mid-scan error from ``query()`` has the cursor path's type and
  text and leaves no lock, slot or open cursor behind;
* closing a cursor mid-stream finishes its plan as a hang-up, not an
  error, and an error raised while rows are built closes the plan
  generator and releases its locks.
"""

from __future__ import annotations

import threading

import pytest

from repro import PostgresRaw, PostgresRawConfig, PostgresRawService
from repro.catalog.schema import TableSchema
from repro.errors import RawDataError
from repro.executor import result as result_module
from repro.rawio.writer import append_csv_rows, write_csv
from repro.service import service as service_module
from repro.sql.parser import parse_select

SCHEMA = TableSchema.from_pairs(
    [("g", "integer"), ("h", "integer"), ("v", "integer")]
)
ROWS = [(i % 4, i % 3, (i * 7) % 101 - 50) for i in range(300)]
SCAN = "SELECT g, v FROM t WHERE v > 10"
TILE = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"


def config(tmp_path, **overrides) -> PostgresRawConfig:
    base = dict(
        batch_size=16,
        mv_auto=True,
        vp_enabled=True,
        vp_dir=str(tmp_path / "vp"),
    )
    base.update(overrides)
    return PostgresRawConfig(**base)


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    return path


def assert_idle(service) -> None:
    """No slot, open cursor or table lock is left behind."""
    sched = service.scheduler.stats()
    assert sched["active"] == 0
    assert sched["admitted"] == sched["completed"]
    assert service.cursor_stats()["open"] == 0
    lock = service.table_lock("t")
    assert lock._readers == 0 and not lock._writer


def test_drained_statements_start_no_thread_and_no_channel(
    tmp_path, csv_path, monkeypatch
):
    started: list[str] = []
    channels: list = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    channel = service_module.BatchChannel
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(
        service_module,
        "BatchChannel",
        lambda *args: channels.append(args) or channel(*args),
    )
    with PostgresRaw(config(tmp_path)) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        service = engine.service
        session = service.session()
        engine.query(SCAN)  # cold: tokenizes under the write lock
        engine.query(SCAN)  # warm: shared locks, deferred installs
        engine.execute(parse_select(TILE))
        service.query(TILE)
        service.execute(parse_select(SCAN), sql=SCAN)
        session.query("SELECT h FROM t WHERE g = 1")
        session.execute(parse_select("SELECT COUNT(*) FROM t"))
        engine.build_mv("SELECT h, MAX(v) FROM t GROUP BY h")
        append_csv_rows(csv_path, ROWS[:20], SCHEMA)
        engine.query(TILE)  # lagging: the tail-merge scans
        assert [n for n in started if n.startswith("repro-cursor-")] == []
        assert channels == []
        # The spies see the streamed lane: a cursor over a raw scan.
        with engine.query_stream(SCAN) as cursor:
            cursor.fetchall()
        assert [n for n in started if n.startswith("repro-cursor-")] != []
        assert len(channels) == 1
        assert_idle(service)


def learned(engine) -> dict:
    """What the engine has learned about ``t``, timings left out."""
    service = engine.service
    state = engine.table_state("t")
    counter = service.telemetry.registry.counter
    return {
        "map": [
            (c["attrs"], c["rows"], c["nbytes"])
            for c in state.positional_map.describe()
        ],
        "cache": [
            (e.attr, e.vector.to_pylist(), e.nbytes)
            for e in sorted(state.cache.entries(), key=lambda e: e.attr)
        ],
        "vp": {
            k: v
            for k, v in service._collect_columnstores()[0].items()
            if k != "hits"
        },
        "mv": sorted(
            (e["signature"], e["rows"], e["groups"], e["nbytes"])
            for e in service.mv.stats()["entries"]
        ),
        "mv_builds": service.mv.stats()["builds"],
        "counters": [
            counter(name).value
            for name in (
                "vp_promotions_total",
                "vp_extends_total",
                "mv_tail_merges_total",
            )
        ],
    }


def test_query_learns_what_a_drained_cursor_learns(tmp_path):
    paths = []
    for side in ("query", "cursor"):
        path = tmp_path / f"{side}.csv"
        write_csv(path, ROWS, SCHEMA)
        paths.append(path)
    steps = [
        SCAN,  # maps ``g``, converting it for survivors only
        SCAN,  # jumps ``g``, paying its rent ...
        SCAN,  # ... until it reaches the price of ``g``'s rows
        SCAN,  # loads ``g``
        "SELECT h FROM t WHERE g = 1",
        "SELECT g, h, v FROM t WHERE h = 2",
        TILE,
        TILE,
        TILE,
        ("append", ROWS[:40]),
        TILE,  # lagging: tail-merge
        SCAN,  # extends map and cache over the tail
        TILE,
        "SELECT COUNT(*), SUM(v) FROM t",  # partial hit
    ]
    drained = PostgresRaw(config(tmp_path / "a"))
    streamed = PostgresRaw(config(tmp_path / "b"))
    with drained, streamed:
        drained.register_csv("t", paths[0], SCHEMA)
        streamed.register_csv("t", paths[1], SCHEMA)
        for step in steps:
            if isinstance(step, tuple):
                for path in paths:
                    append_csv_rows(path, step[1], SCHEMA)
                continue
            want = drained.query(step).rows
            with streamed.query_stream(step) as cursor:
                got = cursor.fetchall().rows
            assert sorted(got) == sorted(want), step
            assert learned(drained) == learned(streamed), step
        state = learned(drained)
        assert state["map"] and state["cache"] and state["mv"]
        assert state["vp"]["columns"] == ["g"]
        assert state["counters"][2] >= 1  # a tail-merge happened


def test_a_closed_cursor_finishes_its_plan_normally(tmp_path, csv_path):
    """Closing a cursor mid-stream is a hang-up, not an error: the plan
    still counts the rows its scan covered and installs the prefix it
    learned."""
    with PostgresRaw(config(tmp_path, stream_queue_batches=1)) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        with engine.query_stream(SCAN) as cursor:
            assert cursor.fetchmany(1)
        assert 0 < cursor.metrics.rows_scanned <= len(ROWS)
        assert engine.table_state("t").positional_map.entries()
        assert_idle(engine.service)


def _malformed_csv(path, bad_row=50, n_rows=100):
    lines = ["g,h,v"]
    for i in range(n_rows):
        extra = ",9" if i == bad_row else ""
        lines.append(f"{i % 4},{i % 3},{i}{extra}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("batch_size", [8, 4096])
def test_mid_scan_error_matches_the_cursor_and_leaks_nothing(
    tmp_path, batch_size
):
    path = tmp_path / "t.csv"
    _malformed_csv(path)
    sql = "SELECT g, v FROM t WHERE v >= 0"
    cfg = PostgresRawConfig(batch_size=batch_size)
    with PostgresRawService(cfg) as service:
        service.register_csv("t", path, SCHEMA)
        with pytest.raises(RawDataError) as streamed:
            with service.query_stream(sql) as cursor:
                cursor.fetchall()
    with PostgresRawService(cfg) as service:
        service.register_csv("t", path, SCHEMA)
        session = service.session()
        with pytest.raises(RawDataError) as drained:
            session.query(sql)
        assert type(drained.value) is type(streamed.value)
        assert str(drained.value) == str(streamed.value)
        assert drained.value.row == 50
        assert_idle(service)
        assert session.queries_issued == 1
        # The next statements run: a refresh takes the write lock, and
        # a query that reads no field of the bad row answers.
        service.refresh()
        assert session.query("SELECT COUNT(*) FROM t").rows == [(100,)]
        _malformed_csv(path, bad_row=-1)
        service.refresh()
        assert len(session.query(sql).rows) == 100
        assert_idle(service)


def test_error_while_building_rows_closes_the_plan(
    tmp_path, csv_path, monkeypatch
):
    calls = []
    batch_rows = result_module.batch_rows

    def failing(batch, names):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("no room for rows")
        return batch_rows(batch, names)

    with PostgresRawService(config(tmp_path)) as service:
        service.register_csv("t", csv_path, SCHEMA)
        session = service.session()
        want = sorted(session.query(SCAN).rows)  # learns: warm next
        for sql in (SCAN, "SELECT g, h, v FROM t WHERE h < 2"):
            calls.clear()
            monkeypatch.setattr(result_module, "batch_rows", failing)
            with pytest.raises(MemoryError) as info:
                session.query(sql)
            monkeypatch.setattr(result_module, "batch_rows", batch_rows)
            # Released at once, not when the traceback's frames (and
            # the cursor they hold) are collected.
            assert info.traceback
            assert_idle(service)
        assert sorted(session.query(SCAN).rows) == want
        assert_idle(service)
