"""Vertical persistence: hot columns promoted into the columnstore.

With ``vp_enabled=True`` a repeated workload crosses the
``vp_min_accesses`` threshold and the governor admits promoted columns
as a durable "columnstore" tier; later scans of a promoted column are
served without touching the raw file, an append extends the promoted
prefixes by the tail alone, rewrites/drops invalidate the store, and
with the default ``vp_enabled=False`` nothing changes.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro import (
    Column,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    append_csv_rows,
    write_csv,
)
from repro.monitor.governor import render_governor_panel

SCHEMA = TableSchema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.INTEGER),
        Column("c", DataType.TEXT),
    ]
)

ROWS = [(i, i * 2, f"r{i}") for i in range(400)]

SQL = "SELECT a FROM t WHERE a >= 0"


def _vp_config(tmp_path, **kw):
    return PostgresRawConfig(
        memory_budget=50_000_000,
        vp_enabled=True,
        vp_min_accesses=2,
        vp_dir=str(tmp_path / "vp"),
        **kw,
    )


def _make_engine(tmp_path, config):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    eng = PostgresRaw(config)
    eng.register_csv("t", path, SCHEMA)
    return eng


def _counter(eng, name):
    return eng.telemetry.registry.counter(name).value


def test_repeated_workload_promotes_and_serves(tmp_path, monkeypatch):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        expected = [(r[0],) for r in ROWS]
        for _ in range(3):
            assert list(eng.query(SQL)) == expected
        assert _counter(eng, "vp_promotions_total") >= 1

        # Drop the binary cache (keep the positional map so the line
        # bounds survive): the next scan must come from the columnstore
        # without re-reading the raw file.  Prove the raw file is never
        # opened by making the raw reader explode.
        state = eng.table_state("t")
        state.cache.invalidate()

        import repro.core.raw_scan as raw_scan_mod

        def _no_raw_reads(*args, **kwargs):
            raise AssertionError("raw file was read on a VP-served scan")

        monkeypatch.setattr(raw_scan_mod, "RawFileReader", _no_raw_reads)
        served_before = _counter(eng, "vp_served_total")
        result = eng.query(SQL)
        assert list(result) == expected
        assert _counter(eng, "vp_served_total") > served_before
        # No tokenizing or parsing either: the column arrives binary.
        assert result.metrics.tokenizing_seconds == 0.0
        assert result.metrics.parsing_seconds == 0.0
    finally:
        eng.close()


def test_explain_annotates_vp_serving(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        assert "vp: served from columnstore" not in eng.explain(SQL)
        for _ in range(3):
            eng.query(SQL)
        assert "-- vp: served from columnstore" in eng.explain(SQL)
        # A projection including an unpromoted column is not annotated.
        assert "vp: served from columnstore" not in eng.explain(
            "SELECT a, c FROM t WHERE a >= 0"
        )
    finally:
        eng.close()


def test_residency_rows_and_accounting_balance(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        for _ in range(3):
            eng.query(SQL)
        governor = eng.service.governor
        rows = governor.residency()
        kinds = {row["kind"] for row in rows}
        assert "columnstore" in kinds
        assert all("format" in row for row in rows)
        cs_rows = [r for r in rows if r["kind"] == "columnstore"]
        assert cs_rows[0]["format"] == "csv"
        assert cs_rows[0]["nbytes"] > 0
        # Governed byte accounting balances across all tiers.
        assert governor.used_bytes == sum(r["nbytes"] for r in rows)
    finally:
        eng.close()


def test_monitor_panel_shows_format_and_columnstore(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        for _ in range(3):
            eng.query(SQL)
        panel = render_governor_panel(eng.service)
        assert "columnstore" in panel
        assert "csv" in panel
    finally:
        eng.close()


def _column_file(tmp_path, name):
    (path,) = (tmp_path / "vp").glob(f"t-*-{name}/{name}.values.npy")
    return path


def test_append_extends_promoted_columns(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        for _ in range(3):
            eng.query(SQL)
        promos_before = _counter(eng, "vp_promotions_total")
        assert promos_before >= 1
        size_before = _column_file(tmp_path, "a").stat().st_size
        append_csv_rows(
            tmp_path / "t.csv", [(1000, 2000, "x"), (1001, 2002, "y")], SCHEMA
        )
        eng.refresh()
        # The promoted prefix survives; the scan stitches the tail on.
        assert _counter(eng, "vp_invalidations_total") == 0
        assert "vp: served from columnstore" not in eng.explain(SQL)
        (stats,) = eng.service._collect_columnstores()
        assert stats["rows"]["a"] == len(ROWS)
        got = list(eng.query(SQL))
        assert len(got) == len(ROWS) + 2
        assert got[-2:] == [(1000,), (1001,)]
        # ... and appends it onto the column's file: 2 rows of int64.
        assert _counter(eng, "vp_extends_total") >= 1
        assert _counter(eng, "vp_promotions_total") == promos_before
        assert _counter(eng, "vp_invalidations_total") == 0
        grown = _column_file(tmp_path, "a").stat().st_size
        assert grown == size_before + 2 * 8
        (stats,) = eng.service._collect_columnstores()
        assert stats["rows"]["a"] == len(ROWS) + 2
        assert stats["lag_rows"]["a"] == 0
        # The extended column serves the whole table again.
        assert "-- vp: served from columnstore" in eng.explain(SQL)
        eng.table_state("t").cache.invalidate()
        served_before = _counter(eng, "vp_served_total")
        assert list(eng.query(SQL)) == got
        assert _counter(eng, "vp_served_total") > served_before
    finally:
        eng.close()


def test_text_tail_with_new_strings_extends_in_place(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        sql = "SELECT c FROM t WHERE a >= 0"
        for _ in range(3):
            eng.query(sql)
        promos_before = _counter(eng, "vp_promotions_total")
        codes = _column_file(tmp_path, "c")
        stored = np.load(codes)
        assert stored.dtype == np.int32  # codes into the file dictionary
        strings = codes.with_name("c.dict.npy").stat().st_size
        append_csv_rows(tmp_path / "t.csv", [(1000, 1, "wider")], SCHEMA)
        expected = [(r[2],) for r in ROWS] + [("wider",)]
        assert list(eng.query(sql)) == expected
        # Both columns took the tail in place: one more code, and the
        # new string on the end of the file dictionary.
        assert _counter(eng, "vp_promotions_total") == promos_before
        assert _counter(eng, "vp_invalidations_total") == 0
        assert len(np.load(codes)) == len(stored) + 1
        assert codes.with_name("c.dict.npy").stat().st_size == strings + 5
        eng.table_state("t").cache.invalidate()
        assert list(eng.query(sql)) == expected
    finally:
        eng.close()


def test_rewrite_invalidates_promoted_columns(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        for _ in range(3):
            eng.query(SQL)
        assert _counter(eng, "vp_promotions_total") >= 1
        write_csv(tmp_path / "t.csv", ROWS[:10], SCHEMA)
        eng.refresh()
        assert _counter(eng, "vp_invalidations_total") >= 1
        assert list(eng.query(SQL)) == [(r[0],) for r in ROWS[:10]]
    finally:
        eng.close()


def test_drop_table_releases_columnstore_bytes(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        for _ in range(3):
            eng.query(SQL)
        governor = eng.service.governor
        assert governor.used_bytes > 0
        eng.drop_table("t")
        assert governor.used_bytes == 0
        assert governor.residency() == []
    finally:
        eng.close()


XY = TableSchema(
    [Column("x", DataType.INTEGER), Column("y", DataType.INTEGER)]
)


@pytest.mark.parametrize("tier", ["cache", "columnstore", "map"])
def test_eviction_mid_scan_keeps_the_pinned_column(tmp_path, tier):
    """A scan reads ``x`` from the tier it pinned when it planned: other
    tables' grants evicting that entry while the cursor is open change
    neither whether it finishes nor its rows."""
    for name, n in (("a", 5_000), ("b", 20_000)):
        write_csv(tmp_path / f"{name}.csv", [(i, i) for i in range(n)], XY)
    config = PostgresRawConfig(
        memory_budget=400_000,
        vp_enabled=tier == "columnstore",
        vp_min_accesses=1,
        vp_dir=str(tmp_path / "vp"),
        batch_size=64,
        stream_queue_batches=1,
    )
    with PostgresRaw(config) as eng:
        for name in "ab":
            eng.register_csv(name, tmp_path / f"{name}.csv", XY)
        for _ in range(3):
            eng.query("SELECT x FROM a")
        if tier != "cache":
            # The governor's own call: only the lower rungs serve ``x``.
            eng.table_state("a").cache.governed_evict(0)
        governor = eng.service.governor

        def held():
            (row,) = [
                r
                for r in governor.residency()
                if r["table"] == "a" and r["kind"] == tier
            ]
            return row["items"]

        assert held() >= 1
        cursor = eng.service.session().cursor("SELECT x FROM a")
        rows = cursor.fetchmany(10)
        for _ in range(3):
            eng.query("SELECT x, y FROM b")
        assert held() == 0  # evicted while the cursor was open
        rows += cursor.fetchall()
        assert rows == [(i,) for i in range(5_000)]


#: Scales the stress test below (``make stress`` raises it).
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "2"))


def test_columnstore_streams_under_cross_table_eviction(tmp_path):
    """Threads stream ``a`` in small fetches — ``x`` promoted, so mostly
    from the columnstore — while others query ``b`` under a budget that
    ``b`` alone overflows: the governor evicts across tables while
    cursors are open.  Every answer matches the oracle and the
    governor's books balance."""
    a_rows = [(i, i % 7) for i in range(5_000)]
    b_rows = [(i, i % 11) for i in range(20_000)]
    write_csv(tmp_path / "a.csv", a_rows, XY)
    write_csv(tmp_path / "b.csv", b_rows, XY)
    oracle = {
        "SELECT x FROM a": [(x,) for x, __ in a_rows],
        "SELECT x FROM a WHERE x % 3 = 0": [
            (x,) for x, __ in a_rows if x % 3 == 0
        ],
        "SELECT x, y FROM b WHERE y < 5": [r for r in b_rows if r[1] < 5],
        "SELECT COUNT(*), SUM(x) FROM b WHERE y >= 5": [
            (
                sum(1 for __, y in b_rows if y >= 5),
                sum(x for x, y in b_rows if y >= 5),
            )
        ],
    }
    streamed, queried = list(oracle)[:2], list(oracle)[2:]
    config = PostgresRawConfig(
        memory_budget=400_000,
        vp_enabled=True,
        vp_min_accesses=1,
        vp_dir=str(tmp_path / "vp"),
        batch_size=64,
        stream_queue_batches=1,
        max_concurrent_queries=4,
    )
    errors: list = []
    mismatches: list = []

    def stream(session, i):
        for r in range(4 * ROUNDS):
            sql = streamed[(i + r) % 2]
            rows = []
            with session.cursor(sql) as cursor:
                while got := cursor.fetchmany(97):
                    rows.extend(got)
            if rows != oracle[sql]:
                mismatches.append((sql, len(rows)))

    def query(session, i):
        for r in range(4 * ROUNDS):
            sql = queried[(i + r) % 2]
            if sorted(session.query(sql).rows) != oracle[sql]:
                mismatches.append((sql, "b"))

    with PostgresRaw(config) as eng:
        service = eng.service
        for name in "ab":
            eng.register_csv(name, tmp_path / f"{name}.csv", XY)
        for __ in range(3):
            eng.query("SELECT x FROM a")
        eng.table_state("a").cache.governed_evict(0)

        def client(work, i):
            try:
                work(service.session(), i)
            except Exception as exc:  # surfaced by the main thread
                errors.append((work.__name__, i, repr(exc)))

        threads = [
            threading.Thread(target=client, args=(work, i))
            for work in (stream, query)
            for i in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "stress test hung"
        assert errors == [] and mismatches == []
        governor = service.governor
        assert governor.cross_evictions > 0
        assert _counter(eng, "vp_served_total") > 0
        assert governor.used_bytes <= governor.budget_bytes
        assert governor.used_bytes == sum(
            r["nbytes"] for r in governor.residency()
        )
        for name in "ab":
            state = eng.table_state(name)
            tiers = (state.positional_map, state.cache, state.columnstore)
            held = sum(
                r["nbytes"]
                for r in governor.residency()
                if r["table"] == name
            )
            assert held == sum(tier.used_bytes for tier in tiers)
        assert service.cursor_stats()["open"] == 0
        sched = service.scheduler.stats()
        assert sched["active"] == 0 and sched["admitted"] == sched["completed"]


def test_vp_disabled_by_default(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    eng = PostgresRaw(PostgresRawConfig(memory_budget=50_000_000))
    try:
        eng.register_csv("t", path, SCHEMA)
        for _ in range(4):
            assert len(list(eng.query(SQL))) == len(ROWS)
        assert _counter(eng, "vp_promotions_total") == 0
        assert eng.table_state("t").columnstore is None
        assert eng.service._collect_columnstores() is None
        kinds = {r["kind"] for r in eng.service.governor.residency()}
        assert "columnstore" not in kinds
        assert "vp: served from columnstore" not in eng.explain(SQL)
    finally:
        eng.close()


def test_vp_min_accesses_validated():
    from repro.errors import BudgetError

    with pytest.raises(BudgetError):
        PostgresRawConfig(vp_min_accesses=0)


def test_vp_respects_governor_budget(tmp_path):
    # A budget too small for any promotion: the engine still answers,
    # promotions are denied, and accounting stays balanced.
    config = PostgresRawConfig(
        memory_budget=2048,
        vp_enabled=True,
        vp_min_accesses=2,
        vp_dir=str(tmp_path / "vp"),
    )
    eng = _make_engine(tmp_path, config)
    try:
        expected = [(r[0],) for r in ROWS]
        for _ in range(4):
            assert list(eng.query(SQL)) == expected
        governor = eng.service.governor
        assert governor.used_bytes <= 2048
        assert governor.used_bytes == sum(
            r["nbytes"] for r in governor.residency()
        )
    finally:
        eng.close()
