"""Vertical persistence: hot columns loaded into the columnstore.

With ``vp_enabled=True`` a column that selective scans keep jumping
through the positional map is loaded once its rent reaches its price
(rent-or-buy), and the governor admits it as a durable "columnstore"
tier — the only way in: a column the cache holds is never copied
there.  Later scans of a loaded column are served without touching the
raw file, even as a predicate column; an append extends it by the tail
alone, rewrites/drops invalidate the store, and with the default
``vp_enabled=False`` nothing changes.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    Column,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    PostgresRawService,
    TableSchema,
    append_csv_rows,
    append_jsonl_rows,
    write_csv,
    write_jsonl,
)
from repro.errors import UpdateConflictError
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


def _load_a(eng):
    """Load ``a`` the one way in: a selective scan on ``b`` maps it
    without caching it, then projections jump it until its rent buys
    its load."""
    eng.query("SELECT a FROM t WHERE b % 4 = 0")
    state = eng.table_state("t")
    for _ in range(4):
        eng.query("SELECT b, a FROM t WHERE b % 7 = 0")
        if state.columnstore.coverage_rows(0):
            assert state.cache.peek(0) is None
            return
    raise AssertionError("a was not loaded")


def test_repeated_workload_promotes_and_serves(tmp_path, monkeypatch):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        expected = [(r[0],) for r in ROWS]
        _load_a(eng)
        assert list(eng.query(SQL)) == expected
        assert _counter(eng, "vp_promotions_total") == 1

        # Drop the binary cache (keep the positional map so the line
        # bounds survive): the loaded predicate column comes from the
        # columnstore without re-reading the raw file.  Prove the raw
        # file is never opened by making the raw reader explode.
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
        assert "served from binary tiers" not in eng.explain(SQL)
        _load_a(eng)
        assert "-- served from binary tiers (columnstore: a)" in eng.explain(
            SQL
        )
        # A projection including a column no binary tier holds reads
        # the raw file: not annotated.
        assert "served from binary tiers" not in eng.explain(
            "SELECT a, c FROM t WHERE a >= 0"
        )
    finally:
        eng.close()


def test_residency_rows_and_accounting_balance(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        _load_a(eng)
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
        _load_a(eng)
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
        _load_a(eng)
        promos_before = _counter(eng, "vp_promotions_total")
        size_before = _column_file(tmp_path, "a").stat().st_size
        append_csv_rows(
            tmp_path / "t.csv", [(1000, 2000, "x"), (1001, 2002, "y")], SCHEMA
        )
        eng.refresh()
        # The loaded prefix survives; the scan stitches the tail on.
        assert _counter(eng, "vp_invalidations_total") == 0
        assert "served from binary tiers" not in eng.explain(SQL)
        (stats,) = eng.service._collect_columnstores()
        assert stats["rows"]["a"] == len(ROWS)
        got = list(eng.query(SQL))
        assert len(got) == len(ROWS) + 2
        assert got[-2:] == [(1000,), (1001,)]
        # ... and, converting the predicate's tail whole, appends it
        # onto the column's file: 2 rows of int64.
        assert _counter(eng, "vp_extends_total") >= 1
        assert _counter(eng, "vp_promotions_total") == promos_before
        assert _counter(eng, "vp_invalidations_total") == 0
        grown = _column_file(tmp_path, "a").stat().st_size
        assert grown == size_before + 2 * 8
        (stats,) = eng.service._collect_columnstores()
        assert stats["rows"]["a"] == len(ROWS) + 2
        assert stats["lag_rows"]["a"] == 0
        # The extended column serves the whole table again.
        assert "-- served from binary tiers (columnstore: a)" in eng.explain(
            SQL
        )
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
        eng.query(MAP_C)
        _load_c(eng)
        promos_before = _counter(eng, "vp_promotions_total")
        codes = _column_file(tmp_path, "c")
        stored = np.load(codes)
        assert stored.dtype == np.int32  # codes into the file dictionary
        strings = codes.with_name("c.dict.npy").stat().st_size
        append_csv_rows(tmp_path / "t.csv", [(1000, 1, "wider")], SCHEMA)
        expected = [(r[2],) for r in ROWS] + [("wider",)]
        assert list(eng.query(sql)) == expected
        # The column took the tail in place: one more code, and the
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
        _load_a(eng)
        write_csv(tmp_path / "t.csv", ROWS[:10], SCHEMA)
        eng.refresh()
        assert _counter(eng, "vp_invalidations_total") >= 1
        assert list(eng.query(SQL)) == [(r[0],) for r in ROWS[:10]]
    finally:
        eng.close()


def test_drop_table_releases_columnstore_bytes(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        _load_a(eng)
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
        vp_dir=str(tmp_path / "vp"),
        batch_size=64,
        stream_queue_batches=1,
    )
    with PostgresRaw(config) as eng:
        for name in "ab":
            eng.register_csv(name, tmp_path / f"{name}.csv", XY)
        if tier == "columnstore":
            _load_x(eng)
        else:
            for _ in range(3):
                eng.query("SELECT x FROM a")
        if tier == "map":
            # The governor's own call: only the map serves ``x``.
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


def _load_x(eng):
    """Load ``x`` of table ``a``: mapped by a selective scan on ``y``,
    then jumped until its rent buys its load."""
    eng.query("SELECT x FROM a WHERE y % 2 = 0")
    for _ in range(4):
        eng.query("SELECT y, x FROM a WHERE y % 7 = 0")
        if eng.table_state("a").columnstore.coverage_rows(0):
            return
    raise AssertionError("x was not loaded")


#: Scales the stress test below (``make stress`` raises it).
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "2"))


def test_columnstore_streams_under_cross_table_eviction(tmp_path):
    """Threads stream ``a`` in small fetches — ``x`` loaded, so mostly
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
        _load_x(eng)

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
        assert "columnstore:" not in eng.explain(SQL)
    finally:
        eng.close()


def test_vp_respects_governor_budget(tmp_path):
    # A budget too small for any load: the engine still answers, loads
    # are denied, and accounting stays balanced.
    config = PostgresRawConfig(
        memory_budget=2048,
        vp_enabled=True,
        vp_dir=str(tmp_path / "vp"),
    )
    eng = _make_engine(tmp_path, config)
    try:
        expected = [(r[0],) for r in ROWS]
        eng.query(MAP_C)
        for _ in range(4):
            assert list(eng.query(SQL)) == expected
            assert list(eng.query(JUMPED)) == _jumped(ROWS)
        assert _counter(eng, "vp_promotions_total") == 0
        governor = eng.service.governor
        assert governor.used_bytes <= 2048
        assert governor.used_bytes == sum(
            r["nbytes"] for r in governor.residency()
        )
    finally:
        eng.close()


# ----------------------------------------------------------------------
# Rent-or-buy loading: a projection-only column that scans keep reading
# for a few survivors through the positional map is loaded into the
# columnstore once its rent (raw bytes its jumps read) reaches its price
# (the raw bytes of its rows).
# ----------------------------------------------------------------------

#: ``a`` read whole (cached), ``c`` mapped but converted for survivors.
MAP_C = "SELECT c FROM t WHERE a % 2 = 0"
JUMPED = "SELECT a, c FROM t WHERE a % 7 = 0"


def _jumped(rows):
    return [(a, c) for a, __, c in rows if a % 7 == 0]


def _price(state):
    bounds = state.positional_map.line_bounds
    return int(bounds[-1] - bounds[0])


def _load_c(eng, rows=ROWS):
    """Repeat ``JUMPED`` until ``c`` is loaded: the rent each run
    started with, the last run's the one that loaded."""
    state = eng.table_state("t")
    paid = []
    while state.columnstore.coverage_rows(2) < len(rows):
        assert len(paid) < 4, paid
        paid.append(state.load_rent.get(2, 0))
        assert list(eng.query(JUMPED)) == _jumped(rows)
    return paid


def test_a_jumped_column_is_loaded_once_its_rent_reaches_the_price(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        eng.query(MAP_C)
        state = eng.table_state("t")
        price = _price(state)
        paid = _load_c(eng)
        # Not before: every earlier run started short of the price.
        assert paid[-1] >= price and all(p < price for p in paid[:-1])
        assert _counter(eng, "vp_promotions_total") == 1
        # One binary copy: the columnstore's, not the cache's.
        assert state.cache.peek(2) is None
        (stats,) = eng.service._collect_columnstores()
        assert stats["columns"] == ["c"] and stats["rows"]["c"] == len(ROWS)
        assert stats["rent"] == {}
        assert "columnstore t: c" in render_governor_panel(eng.service)
        # Served from the columnstore since: no jump, so no rent.
        result = eng.query(JUMPED)
        assert list(result) == _jumped(ROWS)
        assert result.metrics.fields_parsed_via_map == 0
        assert state.rents() == {}
        # Wholly from binary tiers, each column from its one copy.
        assert (
            "-- served from binary tiers (cache: a; columnstore: c)"
            in eng.explain(JUMPED)
        )
        assert _counter(eng, "vp_promotions_total") == 1
    finally:
        eng.close()


def test_only_a_loaded_column_enters_the_columnstore(tmp_path):
    """Each converted column has one binary copy: ``a``, read whole on
    every repeat, stays the cache's; ``c``, jumped until its rent buys
    its load, is the columnstore's alone."""
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        for _ in range(5):
            assert list(eng.query(SQL)) == [(r[0],) for r in ROWS]
        eng.query(MAP_C)
        _load_c(eng)
        state = eng.table_state("t")
        (stats,) = eng.service._collect_columnstores()
        assert stats["columns"] == ["c"]
        assert state.cache.peek(0) is not None and state.cache.peek(2) is None
        column = state.columnstore.peek(2)
        governor = eng.service.governor
        assert governor.used_bytes == (
            state.cache.used_bytes
            + state.positional_map.used_bytes
            + column.nbytes
        )
        # ... which is what its files and zone map hold.
        assert column.nbytes == column.store.storage_bytes() + (
            column.store.zone_bytes()
        )
    finally:
        eng.close()


def test_single_row_jumps_never_load(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        eng.query(MAP_C)
        state = eng.table_state("t")
        keys = range(0, len(ROWS), 4)
        for k in keys:
            sql = f"SELECT a, c FROM t WHERE a = {k}"
            assert list(eng.query(sql)) == [(k, f"r{k}")]
        # Each lookup paid one row; a quarter of the table is no price.
        bounds = state.positional_map.line_bounds
        assert state.rents() == {
            "c": sum(int(bounds[k + 1] - bounds[k]) for k in keys)
        }
        assert state.load_rent[2] < _price(state)
        assert state.columnstore.coverage_rows(2) == 0
        assert state.cache.peek(2) is None
        assert _counter(eng, "vp_promotions_total") == 0
        (stats,) = eng.service._collect_columnstores()
        assert stats["columns"] == [] and "c" in stats["rent"]
        assert "rent toward a load: c" in render_governor_panel(eng.service)
    finally:
        eng.close()


def test_vp_off_pays_no_rent_and_loads_nothing(tmp_path):
    eng = _make_engine(tmp_path, PostgresRawConfig(memory_budget=50_000_000))
    try:
        eng.query(MAP_C)
        for _ in range(6):
            result = eng.query(JUMPED)
            assert list(result) == _jumped(ROWS)
            assert result.metrics.fields_parsed_via_map > 0  # still jumped
        state = eng.table_state("t")
        assert state.load_rent == {} and state.cache.peek(2) is None
        assert _counter(eng, "vp_promotions_total") == 0
        assert eng.service._collect_columnstores() is None
    finally:
        eng.close()


def test_a_rewrite_resets_the_rent(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        eng.query(MAP_C)
        eng.query(JUMPED)
        state = eng.table_state("t")
        assert state.load_rent[2] > 0
        write_csv(tmp_path / "t.csv", ROWS[:50], SCHEMA)
        eng.refresh()
        assert state.rents() == {}
        # The new file's column earns its own rent from nothing.
        eng.query(MAP_C)
        assert _load_c(eng, ROWS[:50])[0] == 0
        assert _counter(eng, "vp_promotions_total") == 1
    finally:
        eng.close()


WIDE_ROWS = [(i, i * 2, f"{i:04d}" + "w" * 120) for i in range(200)]


def test_a_refused_load_resets_the_rent_and_caches_nothing(
    tmp_path, monkeypatch
):
    path = tmp_path / "t.csv"
    write_csv(path, WIDE_ROWS, SCHEMA)
    vp_dir = tmp_path / "vp"
    # Room for the map and the cached ``a``, not for ``c``'s column.
    config = PostgresRawConfig(
        memory_budget=16_000, vp_enabled=True, vp_dir=str(vp_dir)
    )
    with PostgresRaw(config) as eng:
        eng.register_csv("t", path, SCHEMA)
        governor = eng.service.governor
        # What lies under ``vp_dir`` whenever the governor is asked.
        written = []
        grant = governor.grant

        def spying_grant(*args, **kwargs):
            written.extend(p.name for p in vp_dir.rglob("*"))
            return grant(*args, **kwargs)

        monkeypatch.setattr(governor, "grant", spying_grant)
        eng.query(MAP_C)
        state = eng.table_state("t")
        price = _price(state)
        expected = _jumped(WIDE_ROWS)
        rents = []
        for _ in range(6):
            rents.append(state.load_rent.get(2, 0))
            assert list(eng.query(JUMPED)) == expected
        # The rent climbs to the price, the load is refused, and the
        # rent starts over: one whole conversion per price of rent,
        # not one per query.
        assert rents[0] == 0 and rents[1] < price <= rents[2]
        assert rents[3:] == rents[:3]
        assert governor.rejected_grants == 2
        assert _counter(eng, "vp_promotions_total") == 0
        assert state.columnstore.coverage_rows(2) == 0
        assert state.cache.peek(2) is None
        # Refused before a byte was written: not even a staging file.
        assert written == [] and list(vp_dir.rglob("*")) == []
        assert governor.used_bytes <= governor.budget_bytes
        assert governor.used_bytes == sum(
            r["nbytes"] for r in governor.residency()
        )


def test_an_appended_tail_loads_and_extends_the_column_in_place(tmp_path):
    eng = _make_engine(tmp_path, _vp_config(tmp_path))
    try:
        eng.query(MAP_C)
        _load_c(eng)
        codes = _column_file(tmp_path, "c")
        assert len(np.load(codes)) == len(ROWS)
        promotions = _counter(eng, "vp_promotions_total")
        extends = _counter(eng, "vp_extends_total")
        tail = [(1001, 0, "x1"), (1002, 0, "x2"), (1008, 0, "x3")]
        append_csv_rows(tmp_path / "t.csv", tail, SCHEMA)
        rows = ROWS + tail
        # The tail is tokenized once, then jumped: its own rent buys it.
        paid = _load_c(eng, rows)
        state = eng.table_state("t")
        bounds = state.positional_map.line_bounds
        tail_price = int(bounds[-1] - bounds[len(ROWS)])
        assert paid[0] == 0 and paid[-1] >= tail_price > paid[-2]
        assert _counter(eng, "vp_promotions_total") == promotions
        assert _counter(eng, "vp_extends_total") > extends
        assert _counter(eng, "vp_invalidations_total") == 0
        assert len(np.load(codes)) == len(rows)  # extended in place
        (stats,) = eng.service._collect_columnstores()
        assert stats["columns"] == ["c"] and stats["lag_rows"]["c"] == 0
        assert state.cache.peek(2) is None
        assert list(eng.query(JUMPED)) == _jumped(rows)
        assert state.rents() == {}
    finally:
        eng.close()


def test_loads_race_evictions_and_tail_extends(tmp_path):
    """Four sessions run selective projections — two drained, two
    through cursors read in small fetches — while a writer appends to a
    JSON-lines file (whose map chunks take every tail), under a budget
    the growing table overflows: tail loads race evictions and tail
    extends.  Every answer is the oracle's over a row prefix the file
    has had, and no lock, slot, cursor or governed byte is left
    behind."""
    base, per_append = 3_000, 50
    appends = 6 * ROUNDS

    def row(i):
        return (i, i % 10, f"r{i:05d}")

    path = tmp_path / "t.jsonl"
    write_jsonl(path, [row(i) for i in range(base)], SCHEMA)
    last = base + appends * per_append
    config = PostgresRawConfig(
        memory_budget=200_000,
        vp_enabled=True,
        vp_dir=str(tmp_path / "vp"),
        batch_size=256,
        max_concurrent_queries=8,
    )
    #: ``WHERE b = k`` over every row the file will have.
    answers = [
        [(i, c) for i, b, c in map(row, range(last)) if b == k]
        for k in range(10)
    ]
    errors: list = []
    done = threading.Event()

    def sql(k):
        return f"SELECT a, c FROM t WHERE b = {k}"

    def check(k, got):
        # The answer over a row prefix the file has had: the first
        # ``base`` rows at least.
        if got != answers[k][: len(got)] or len(got) < base // 10:
            errors.append((k, len(got)))

    def written():
        """Columns loaded, and tails they took."""
        return (
            counter("vp_promotions_total").value
            + counter("vp_extends_total").value
        )

    def load_a_column(session):
        """Run the projections alone until one loads a column."""
        for k in range(8):
            check(k, session.query(sql(k)).rows)
            if written():
                return
        raise AssertionError("no column loaded")

    def client(session, i):
        r = 0
        try:
            while not done.is_set() or r < 4:
                k = (i + r) % 10
                r += 1
                try:
                    if i % 2:
                        with session.cursor(sql(k)) as cursor:
                            got = []
                            while more := cursor.fetchmany(97):
                                got.extend(more)
                    else:
                        got = session.query(sql(k)).rows
                except UpdateConflictError:
                    continue  # the file grew under this very scan
                check(k, got)
        except Exception as exc:  # surfaced by the main thread
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the threads finely
    try:
        with PostgresRawService(config) as service:
            counter = service.telemetry.registry.counter
            service.register_jsonl("t", path, SCHEMA)
            session = service.session()
            session.query("SELECT c FROM t WHERE a % 2 = 0")
            load_a_column(session)
            loads = written()
            threads = [
                threading.Thread(target=client, args=(service.session(), i))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for step in range(appends):
                lo = base + step * per_append
                append_jsonl_rows(
                    path, [row(i) for i in range(lo, lo + per_append)], SCHEMA
                )
                time.sleep(0.05)  # time to map the tail and pay its rent
            done.set()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "stress test hung"
            assert errors == []
            # Tails loaded while the writer appended.
            assert written() > loads
            for k in range(10):
                assert session.query(sql(k)).rows == answers[k]
            governor = service.governor
            assert governor.evictions > 0
            assert governor.used_bytes <= governor.budget_bytes
            assert governor.used_bytes == sum(
                r["nbytes"] for r in governor.residency()
            )
            state = service.table_state("t")
            tiers = (state.positional_map, state.cache, state.columnstore)
            assert governor.used_bytes == sum(t.used_bytes for t in tiers)
            cursors = service.cursor_stats()
            assert cursors["open"] == 0
            sched = service.scheduler.stats()
            assert sched["active"] == 0
            assert sched["admitted"] == sched["completed"]
            lock = service.table_lock("t")
            assert lock._readers == 0 and not lock._writer
    finally:
        sys.setswitchinterval(interval)
