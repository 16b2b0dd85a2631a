"""Appends advance the aggregate and columnstore tiers' watermarks.

An append leaves a materialized aggregate and a loaded column valid
for the row prefix they cover; the next query folds in / appends only
the new tail.  These are the edges of that contract: what a tail may
bring (NULLs, NaN keys, new groups, nothing that passes the filter,
sums past 2^53 and past int64), float tolerance, two sessions merging
one tail, an append racing an open tail-merge, and the counters that
tell an advance from a rebuild.  ``REPRO_STRESS_ROUNDS`` scales the
append hammer like the other stress suites.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time

import pytest

from repro import PostgresRaw, PostgresRawConfig, PostgresRawService
from repro.catalog.schema import TableSchema
from repro.errors import ExecutionError, UpdateConflictError
from repro.rawio.writer import append_csv_rows, write_csv

SCHEMA = TableSchema.from_pairs(
    [("g", "integer"), ("f", "float"), ("v", "integer"), ("s", "text")]
)
NAN = float("nan")
ROWS = [(i % 3, float(i % 2), i, f"s{i % 4}") for i in range(50)]
TIMEOUT = 30
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "2"))


@pytest.fixture()
def path(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    return path


def config(**overrides):
    return PostgresRawConfig(mv_auto=True, **overrides)


def raw(path, sql):
    with PostgresRaw() as engine:
        engine.register_csv("t", path, SCHEMA)
        return engine.query(sql).rows


def same_rows(got, want, rel=0.0):
    """Same multiset of rows; NaN equals NaN, floats within ``rel``."""

    def key(row):
        # (is NULL, is NaN, value): NULLs and NaNs sort last, together.
        return tuple(
            (v is None, v != v, 0 if v is None or v != v else v)
            for v in row
        )

    def same(a, b):
        if isinstance(a, float) and isinstance(b, float):
            return (a != a and b != b) or math.isclose(
                a, b, rel_tol=rel, abs_tol=0.0
            )
        return a == b

    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(same, g, w))
        for g, w in zip(sorted(got, key=key), sorted(want, key=key))
    )


def load_v(engine):
    """Load ``v`` into the columnstore the one way in: mapped by a
    selective scan without being cached, then jumped until its rent
    buys its load."""
    state = engine.table_state("t")
    engine.query("SELECT v FROM t WHERE g = 1")
    for __ in range(4):
        engine.query("SELECT g, v FROM t WHERE g = 1")
        if state.columnstore.coverage_rows(2):
            return
    raise AssertionError("v was not loaded")


def capture(engine, sql):
    """Run ``sql`` until it is captured: the first run pays its rent,
    the second buys the MV (the budget does not bind).  Returns the
    first run's rows."""
    rows = engine.query(sql).rows
    engine.query(sql)
    return rows


def merges(engine):
    return engine.telemetry.registry.counter("mv_tail_merges_total").value


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT g, count(*), count(v), sum(v), min(v), max(v), avg(v) "
        "FROM t GROUP BY g",
        "SELECT f, count(*), sum(v) FROM t GROUP BY f",
        "SELECT s, min(s), max(s), count(s) FROM t GROUP BY s",
        "SELECT count(*), sum(v), avg(v), min(f), max(f) FROM t",
    ],
)
def test_tail_brings_nulls_nan_keys_and_new_groups(path, sql):
    tail = [
        (None, NAN, None, None),  # NULL key, NaN key, NULL arguments
        (7, NAN, None, "new"),  # groups the prefix never saw
        (None, 2.5, 11, None),
        (0, 0.0, None, "s0"),
    ]
    with PostgresRaw(config()) as engine:
        engine.register_csv("t", path, SCHEMA)
        assert same_rows(capture(engine, sql), raw(path, sql))
        append_csv_rows(path, tail, SCHEMA)
        merged = engine.query(sql).rows
        assert merges(engine) == 1
        assert same_rows(merged, raw(path, sql))
        # The raw path lists groups as their first rows arrive; so does
        # a merge — stored groups first, then the tail's new ones.
        assert [repr(r[0]) for r in merged] == [
            repr(r[0]) for r in raw(path, sql)
        ]
        assert same_rows(engine.query(sql).rows, merged)
        assert merges(engine) == 1 and "MVScan [exact]" in engine.explain(sql)


def test_tail_filtered_away_still_advances_the_watermark(path):
    sql = "SELECT g, count(*), sum(v) FROM t WHERE v < 1000 GROUP BY g"
    narrow = "SELECT count(*) FROM t WHERE v < 1000 AND g = 1"
    with PostgresRaw(config()) as engine:
        engine.register_csv("t", path, SCHEMA)
        before = capture(engine, sql)
        append_csv_rows(path, [(1, 0.0, 5000, "x")] * 3, SCHEMA)
        assert engine.query(narrow).rows == raw(path, narrow)  # partial
        assert engine.query(sql).rows == before == raw(path, sql)
        (entry,) = [
            e
            for e in engine.service.mv.stats()["entries"]
            if e["dims"] == ["g"]
        ]
        assert entry["rows"] == len(ROWS) + 3 and entry["lag_rows"] == 0
        assert merges(engine) == 1


def test_long_tail_from_an_unaligned_watermark(path):
    sql = "SELECT g, count(*), sum(v), avg(f) FROM t WHERE v >= 0 GROUP BY g"
    with PostgresRaw(config(batch_size=16)) as engine:
        engine.register_csv("t", path, SCHEMA)
        capture(engine, sql)
        tail = [(i % 4, 0.25 * i, i, f"s{i % 3}") for i in range(300)]
        append_csv_rows(path, tail, SCHEMA)
        merged = engine.query(sql)
        # The watermark (row 50) is no batch multiple: the tail's
        # first stride is rows [50, 64), the rest whole batches.
        assert merged.metrics.rows_scanned == 300
        assert same_rows(merged.rows, raw(path, sql), rel=1e-9)
        assert merges(engine) == 1
        assert same_rows(engine.query(sql).rows, merged.rows)


def test_integer_sum_stays_exact_across_merges(path):
    sql = "SELECT g, sum(v), avg(v) FROM t GROUP BY g"
    big = 2**53 - 1
    write_csv(path, [(0, 0.0, big, "a"), (1, 0.0, 2**62, "a")], SCHEMA)
    with PostgresRaw(config()) as engine:
        engine.register_csv("t", path, SCHEMA)
        capture(engine, sql)
        append_csv_rows(path, [(0, 0.0, 3, "a")], SCHEMA)
        rows = dict((g, total) for g, total, __ in engine.query(sql).rows)
        assert rows == {0: big + 3, 1: 2**62}  # a float sum would round
        append_csv_rows(path, [(1, 0.0, 2**62 - 1, "a")], SCHEMA)
        rows = dict((g, total) for g, total, __ in engine.query(sql).rows)
        assert rows == {0: big + 3, 1: 2**63 - 1}  # int64's last value
        append_csv_rows(path, [(1, 0.0, 1, "a")], SCHEMA)
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            engine.query(sql)
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            raw(path, sql)
        assert engine.service.mv.catalog.invalidations == 0


def test_float_sum_and_avg_match_the_raw_path_within_tolerance(path):
    sql = "SELECT g, sum(f), avg(f), count(f) FROM t GROUP BY g"
    values = [0.1 * i + 1e-7 * (i % 7) for i in range(400)]
    write_csv(
        path, [(i % 5, x, i, "a") for i, x in enumerate(values)], SCHEMA
    )
    with PostgresRaw(config()) as engine:
        engine.register_csv("t", path, SCHEMA)
        capture(engine, sql)
        for step in range(5):
            tail = [(i % 5, 1e9 / (i + step + 1), i, "a") for i in range(9)]
            append_csv_rows(path, tail, SCHEMA)
            assert same_rows(
                engine.query(sql).rows, raw(path, sql), rel=1e-9
            )
        assert merges(engine) == 5


def test_two_sessions_merging_the_same_tail_count_it_once(path):
    sql = "SELECT g, count(*), sum(v) FROM t GROUP BY g"
    with PostgresRawService(config()) as service:
        service.register_csv("t", path, SCHEMA)
        a, b = service.session(), service.session()
        capture(a, sql)
        append_csv_rows(path, [(1, 0.0, 100, "x")] * 4, SCHEMA)
        expected = raw(path, sql)

        # Hold A's deferred install until B has planned against the
        # same lagging entry: both merge rows [50, 54).
        b_planned = threading.Event()
        install = service._install_deferred

        def gated(*args):
            assert b_planned.wait(TIMEOUT)
            install(*args)

        service._install_deferred = gated
        cursor_a = a.cursor(sql)
        rows_a = cursor_a.fetchmany(3)  # merged, not yet installed
        cursor_b = b.cursor(sql)
        b_planned.set()
        rows_b = cursor_b.fetchall().rows
        cursor_a.close()
        cursor_b.close()
        assert same_rows(rows_a, expected) and same_rows(rows_b, expected)
        counter = service.telemetry.registry.counter
        assert counter("mv_tail_merges_total").value == 1  # one won
        assert counter("mv_tail_rows_total").value == 4
        (entry,) = service.mv.stats()["entries"]
        assert entry["rows"] == len(ROWS) + 4
        assert same_rows(a.query(sql).rows, expected)  # no double count


def test_append_racing_an_open_tail_merge_leaves_the_entry_lagging(path):
    sql = "SELECT g, count(*), sum(v) FROM t GROUP BY g"
    with PostgresRawService(config()) as service:
        service.register_csv("t", path, SCHEMA)
        session = service.session()
        capture(session, sql)
        append_csv_rows(path, [(1, 0.0, 100, "x")] * 4, SCHEMA)
        mid = raw(path, sql)

        # The file grows again after the merge was planned and locked
        # but before its scan reads the tail.
        check = service._check_generations

        def late_append(tables, generations):
            service._check_generations = check
            append_csv_rows(path, [(2, 0.0, 7, "y")] * 2, SCHEMA)
            check(tables, generations)

        service._check_generations = late_append
        try:
            got = session.query(sql).rows
        except UpdateConflictError:
            pass  # the reader saw the file change under its stamp
        else:
            assert same_rows(got, mid)  # the table as admitted
        (entry,) = service.mv.stats()["entries"]
        assert entry["rows"] <= len(ROWS) + 4  # never past what it folded
        assert same_rows(session.query(sql).rows, raw(path, sql))
        (entry,) = service.mv.stats()["entries"]
        assert entry["rows"] == len(ROWS) + 6 and entry["lag_rows"] == 0
        assert service.mv.catalog.invalidations == 0


def test_sessions_hammering_while_the_file_grows_never_miscount(tmp_path):
    """More threads than cores merge, extend and install while a writer
    appends.  Every appended row has v = 1, so in any answer over a row
    prefix ``sum(v) - count(*)`` is the original rows' constant: a tail
    folded twice, or a merged batch installed over a newer one, breaks
    it."""
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    tiles = [
        "SELECT g, count(*), sum(v) FROM t GROUP BY g",
        "SELECT count(*), sum(v) FROM t",  # partial, from the first
    ]
    plain = "SELECT v FROM t WHERE g >= 0"
    constant = sum(v for __, __, v, __ in ROWS) - len(ROWS)
    appends, per_append = 6 * ROUNDS, 5
    cfg = config(
        memory_budget=8 << 20,
        vp_enabled=True,
        vp_dir=str(tmp_path / "vp"),
        max_concurrent_queries=8,
    )
    failures: list = []
    done = threading.Event()

    def reader(session):
        try:
            while not done.is_set():
                for sql in tiles:
                    try:
                        rows = session.query(sql).rows
                    except UpdateConflictError:
                        continue  # the file grew under this very scan
                    count = sum(r[-2] for r in rows)
                    total = sum(r[-1] for r in rows)
                    extra = count - len(ROWS)
                    if total - count != constant or extra % per_append:
                        failures.append((sql, rows))
                try:
                    session.query(plain)
                except UpdateConflictError:
                    pass
        except Exception as exc:  # reported by the main thread
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with PostgresRawService(cfg) as service:
            service.register_csv("t", path, SCHEMA)
            load_v(service)
            capture(service.session(), tiles[0])
            threads = [
                threading.Thread(target=reader, args=(service.session(),))
                for __ in range(6)
            ]
            for thread in threads:
                thread.start()
            for __ in range(appends):
                append_csv_rows(path, [(1, 0.5, 1, "x")] * per_append, SCHEMA)
                time.sleep(0.02)
            done.set()
            for thread in threads:
                thread.join(TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            session = service.session()
            for sql in tiles + [plain]:
                assert same_rows(session.query(sql).rows, raw(path, sql))
            (entry,) = service.mv.catalog.entries()
            assert entry.rows == len(ROWS) + appends * per_append
            assert service.mv.catalog.invalidations == 0
            counter = service.telemetry.registry.counter
            assert counter("vp_invalidations_total").value == 0
            assert counter("vp_extends_total").value > 0
            assert counter("mv_tail_rows_total").value == appends * per_append
            governor = service.governor
            assert governor.used_bytes == sum(
                r["nbytes"] for r in governor.residency()
            )
    finally:
        sys.setswitchinterval(interval)


def test_pure_appends_rebuild_nothing_rewrite_and_drop_drop_both(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    tiles = [
        "SELECT g, count(*), sum(v) FROM t GROUP BY g",
        "SELECT s, avg(f) FROM t GROUP BY s",
        "SELECT count(*) FROM t",  # partial, from either
    ]
    plain = "SELECT v FROM t WHERE g >= 0"
    cfg = config(
        memory_budget=8 << 20,
        vp_enabled=True,
        vp_dir=str(tmp_path / "vp"),
    )
    with PostgresRaw(cfg) as engine:
        engine.register_csv("t", path, SCHEMA)
        load_v(engine)
        for __ in range(2):  # the second pass captures
            for sql in tiles + [plain]:
                engine.query(sql)
        catalog = engine.service.mv.catalog
        counter = engine.telemetry.registry.counter
        builds = catalog.builds
        promotions = counter("vp_promotions_total").value
        assert builds == 2 and promotions == 1
        (v_file,) = (tmp_path / "vp").glob("t-*-v/v.values.npy")
        size = v_file.stat().st_size

        for step in range(3):
            append_csv_rows(path, [(step, 0.5, step, "s1")] * 5, SCHEMA)
            for sql in tiles + [plain]:
                assert same_rows(engine.query(sql).rows, raw(path, sql))
        assert catalog.builds == builds and catalog.invalidations == 0
        assert counter("vp_invalidations_total").value == 0
        assert counter("vp_promotions_total").value == promotions
        assert counter("mv_tail_merges_total").value == 6
        assert counter("mv_tail_rows_total").value == 30
        assert v_file.stat().st_size == size + 15 * 8

        # A rewrite is another file: both tiers start over.
        write_csv(path, ROWS[:20], SCHEMA)
        load_v(engine)
        for __ in range(2):  # the rent starts over: the second captures
            for sql in tiles + [plain]:
                assert same_rows(engine.query(sql).rows, raw(path, sql))
        assert catalog.invalidations == 2
        assert counter("vp_invalidations_total").value == 1
        assert catalog.builds == builds + 2

        # So is a drop.
        dropped = counter("vp_invalidations_total").value
        engine.drop_table("t")
        assert catalog.entry_count() == 0
        assert counter("vp_invalidations_total").value > dropped
        assert engine.service.governor.used_bytes == 0
        assert not list((tmp_path / "vp").glob("t-*"))
