"""Adaptive materialized-aggregate lifecycle against a live service.

Auto-materialization by rent-or-buy, explicit ``build_mv``,
appends advancing an entry's watermark (tail-merge), rewrite/drop
invalidation, governed accounting with MVs in the
budget, monitor panels, and an aggregate-heavy concurrent hammer whose
every answer must match a fresh MV-less engine.

``REPRO_STRESS_ROUNDS`` scales the hammer like the other stress suites.
"""

from __future__ import annotations

import math
import os
import threading

import pytest

from repro import PostgresRaw, PostgresRawConfig, PostgresRawService
from repro.catalog.schema import TableSchema
from repro.monitor import render_governor_panel, render_query_signatures
from repro.mv.analyzer import MAX_SIGNATURES
from repro.rawio.writer import append_csv_rows, write_csv
from repro.sql.parser import parse_select

N_THREADS = 8
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "2"))

SCHEMA = TableSchema.from_pairs(
    [("region", "text"), ("amount", "integer"), ("qty", "integer")]
)
ROWS = [(f"r{i % 5}", i * 3 % 1000, i % 11) for i in range(2000)]

AGG_QUERIES = [
    "SELECT region, SUM(amount) AS s, COUNT(*) AS n FROM t "
    "GROUP BY region",
    "SELECT SUM(amount) AS s FROM t",
    "SELECT region, AVG(amount) AS m FROM t GROUP BY region",
    "SELECT COUNT(*) AS n FROM t WHERE qty < 6",
    "SELECT region, MIN(amount) AS lo, MAX(amount) AS hi FROM t "
    "GROUP BY region",
]


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    return path


def assert_raw_served(engine):
    """A reference engine answers from the raw scan: no MV served it."""
    counter = engine.telemetry.registry.counter
    assert counter("mv_hits_total").value == 0
    assert counter("mv_partial_hits_total").value == 0


def reference(path, queries):
    """Ground truth: a fresh default engine, which never captures an MV."""
    with PostgresRaw() as engine:
        engine.register_csv("t", path, SCHEMA)
        rows = {sql: sorted(engine.query(sql).rows) for sql in queries}
        assert_raw_served(engine)
        return rows


def test_auto_materialization_lifecycle(csv_path):
    config = PostgresRawConfig(mv_auto=True)
    sql = AGG_QUERIES[0]
    expected = reference(csv_path, [sql])[sql]
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        mv = engine.service.mv
        # No rent paid yet: the first run stays raw and pays its seconds.
        assert sorted(engine.query(sql).rows) == expected
        assert mv.catalog.entry_count() == 0
        (row,) = mv.stats()["suggestions"]
        assert row["rent_s"] > 0 and row["price_s"] == 0
        assert row["status"] == "candidate"
        # The budget does not bind, so the price is 0: the second plan
        # captures.
        assert sorted(engine.query(sql).rows) == expected
        assert mv.catalog.entry_count() == 1
        # From now on the planner serves the MV.
        assert "MVScan [exact]" in engine.explain(sql)
        assert sorted(engine.query(sql).rows) == expected
        stats = mv.stats()
        assert stats["hits"] == 1 and stats["builds"] == 1
        assert stats["mvs"] == 1 and stats["bytes"] > 0
        # The narrower global sum re-aggregates from the same MV.
        narrow = "SELECT SUM(amount) AS s FROM t"
        expected_narrow = reference(csv_path, [narrow])[narrow]
        assert "MVScan [partial" in engine.explain(narrow)
        assert sorted(engine.query(narrow).rows) == expected_narrow
        assert mv.stats()["partial_hits"] == 1


def test_bought_on_the_second_raw_run_and_a_one_off_never(csv_path):
    repeated, one_off = AGG_QUERIES[4], AGG_QUERIES[3]
    with PostgresRaw(PostgresRawConfig(mv_auto=True)) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        assert "MVCapture" not in engine.explain(repeated)  # no rent yet
        engine.query(one_off)
        engine.query(repeated)
        # Rent paid, nothing to evict: EXPLAIN previews the capture.
        assert "MVCapture [" in engine.explain(repeated)
        engine.query(repeated)
        mv = engine.service.mv
        assert [e["signature"] for e in mv.stats()["entries"]] == [
            mv.signature_of(parse_select(repeated), "t").label()
        ]
        assert "MVScan [exact]" in engine.explain(repeated)
        assert "MVScan" not in engine.explain(one_off)
        assert mv.stats()["builds"] == 1


def test_one_offs_stay_bounded_and_a_repeat_among_them_is_bought(csv_path):
    repeated = AGG_QUERIES[4]
    with PostgresRaw(PostgresRawConfig(mv_auto=True)) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        mv = engine.service.mv
        for i in range(1000):
            engine.query(f"SELECT COUNT(*) AS n FROM t WHERE amount < {i}")
            if i in (500, 600):
                engine.query(repeated)
        assert mv.stats()["signatures"] == MAX_SIGNATURES
        assert mv.stats()["builds"] == 1
        assert "MVScan [exact]" in engine.explain(repeated)
        # The repeat was last planned 400 one-offs ago, but its MV is
        # resident: its stats, whose rent buys growth, are kept.  A new
        # region grows the entry, and the hit advances it.
        append_csv_rows(csv_path, [("r9", 1, 1), ("r0", 2, 2)], SCHEMA)
        rows = sorted(engine.query(repeated).rows)
        assert rows == reference(csv_path, [repeated])[repeated]
        (entry,) = mv.stats()["entries"]
        assert entry["groups"] == 6 and entry["lag_rows"] == 0
        assert mv.stats()["tail_merges"] == 1


def test_an_unaffordable_signature_never_plans_a_capture(csv_path):
    """``amount`` has 1000 distinct values: the estimated result of
    grouping by it outweighs the budget, so the governor prices it at
    ``inf`` and no rent buys it."""
    sql = "SELECT amount, COUNT(*) AS n FROM t GROUP BY amount"
    config = PostgresRawConfig(mv_auto=True, memory_budget=32 * 1024)
    expected = reference(csv_path, [sql])[sql]
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        mv = engine.service.mv
        for __ in range(4):
            assert sorted(engine.query(sql).rows) == expected
            assert "MVCapture" not in engine.explain(sql)
        sig = mv.signature_of(parse_select(sql), "t")
        assert mv.estimate_result_bytes(sig) > config.memory_budget
        (row,) = mv.stats()["suggestions"]
        assert row["rent_s"] > 0 and row["price_s"] == math.inf
        assert row["status"] == "cold"
        stats = mv.stats()
        assert stats["builds"] == stats["rejected"] == 0


def test_a_refused_capture_costs_its_signature_a_whole_rent(csv_path):
    """An expression dim has no statistics: the plan buys the default
    estimate, which fits, but the real 1000 groups outweigh the budget.
    The install refuses them, and the refused run, completing after its
    install, pays no rent: the next run plans no capture."""
    sql = "SELECT amount + 0 AS k, COUNT(*) AS n FROM t GROUP BY amount + 0"
    expected = reference(csv_path, [sql])[sql]
    config = PostgresRawConfig(mv_auto=True, memory_budget=16 * 1024)
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        mv = engine.service.mv

        def rent():
            (row,) = mv.stats()["suggestions"]
            return row["rent_s"]

        assert sorted(engine.query(sql).rows) == expected
        assert rent() > 0 and "MVCapture [" in engine.explain(sql)
        assert sorted(engine.query(sql).rows) == expected  # refused
        assert mv.stats()["rejected"] == 1 and rent() == 0
        assert "MVCapture" not in engine.explain(sql)
        assert sorted(engine.query(sql).rows) == expected
        stats = mv.stats()
        assert stats["rejected"] == 1 and stats["builds"] == 0
        assert rent() > 0
        governor = engine.service.governor
        assert governor.used_bytes <= governor.budget_bytes


def test_build_mv_explicit_and_idempotent(csv_path):
    with PostgresRaw() as engine:  # mv_auto defaults off
        engine.register_csv("t", csv_path, SCHEMA)
        sql = AGG_QUERIES[4]
        entry = engine.build_mv(sql)
        assert entry["groups"] == 5 and entry["table"] == "t"
        assert entry["rows"] == len(ROWS) and entry["lag_rows"] == 0
        again = engine.build_mv(sql)
        assert again["mv_id"] == entry["mv_id"]  # idempotent
        assert "MVScan [exact]" in engine.explain(sql)
        assert sorted(engine.query(sql).rows) == reference(
            csv_path, [sql]
        )[sql]
        # Auto stays off: other shapes keep running raw.
        engine.query(AGG_QUERIES[1])
        engine.query(AGG_QUERIES[1])
        assert engine.service.mv.catalog.entry_count() == 1


def test_append_advances_and_rewrite_invalidates(csv_path):
    config = PostgresRawConfig(mv_auto=True)
    sql = AGG_QUERIES[0]
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        engine.query(sql)
        engine.query(sql)
        catalog = engine.service.mv.catalog
        counter = engine.telemetry.registry.counter
        assert catalog.entry_count() == 1

        # An append leaves the entry valid for its prefix: the next hit
        # folds the 7 new rows (a new group among them) into it.
        append_csv_rows(csv_path, [("r9", 123, 1)] * 7, SCHEMA)
        engine.refresh()
        assert (
            f"MVScan [exact + tail from row {len(ROWS)}]"
            in engine.explain(sql)
        )
        assert f"RawScan(t from row {len(ROWS)}" in engine.explain(sql)
        expected = reference(csv_path, [sql])[sql]
        merged = engine.query(sql)
        assert sorted(merged.rows) == expected
        assert merged.metrics.rows_scanned == 7
        assert catalog.invalidations == 0 and catalog.builds == 1
        assert counter("mv_tail_merges_total").value == 1
        assert counter("mv_tail_rows_total").value == 7
        (entry,) = engine.service.mv.stats()["entries"]
        assert entry["rows"] == len(ROWS) + 7 and entry["lag_rows"] == 0
        # Level with the table again: served as stored, no scan.
        assert "MVScan [exact]" in engine.explain(sql)
        again = engine.query(sql)
        assert sorted(again.rows) == expected
        assert again.metrics.rows_scanned == 0

        # A rewrite is a new file: everything is dropped, the rent
        # starts over, and the second run over the new file rebuilds.
        write_csv(csv_path, ROWS[:500], SCHEMA)
        expected = reference(csv_path, [sql])[sql]
        assert sorted(engine.query(sql).rows) == expected
        assert catalog.invalidations == 1 and catalog.builds == 1
        assert sorted(engine.query(sql).rows) == expected
        assert catalog.builds == 2


def test_capture_installed_after_a_reconciled_append_is_not_stale(csv_path):
    """Session A's capture scan folds N rows; before A's deferred
    install, an append lands and session B's query reconciles it.  A's
    entry must go resident as an aggregate of N rows (lagging by 2),
    never as the current answer."""
    config = PostgresRawConfig(mv_auto=True)
    sql = "SELECT region, COUNT(*) AS n FROM t GROUP BY region"
    with PostgresRawService(config) as service:
        service.register_csv("t", csv_path, SCHEMA)
        a, b = service.session(), service.session()
        a.query(sql)  # pays the rent: the next run captures
        install = service._install_mv_captures

        def interleaved(captures, generations):
            service._install_mv_captures = install  # one shot
            append_csv_rows(csv_path, [("r0", 1, 1)] * 2, SCHEMA)
            assert b.query("SELECT COUNT(*) FROM t").rows == [
                (len(ROWS) + 2,)
            ]
            install(captures, generations)

        service._install_mv_captures = interleaved
        assert sum(n for __, n in a.query(sql).rows) == len(ROWS)
        assert service.mv.catalog.entry_count() >= 1
        for __ in range(2):
            assert sum(n for __, n in a.query(sql).rows) == len(ROWS) + 2


def test_drop_table_forgets_mvs(csv_path):
    config = PostgresRawConfig(mv_auto=True, memory_budget=8 * 1024 * 1024)
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        engine.query(AGG_QUERIES[0])
        engine.query(AGG_QUERIES[0])
        assert engine.service.mv.catalog.entry_count() == 1
        engine.drop_table("t")
        assert engine.service.mv.catalog.entry_count() == 0
        governor = engine.service.governor
        assert governor.used_bytes == 0


def test_never_capturing_matches_capturing_row_for_row(csv_path):
    expected = reference(csv_path, AGG_QUERIES)
    config = PostgresRawConfig(mv_auto=True)
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        for __ in range(3):  # the second pass captures, the third serves
            for sql in AGG_QUERIES:
                assert sorted(engine.query(sql).rows) == expected[sql]
        assert engine.service.mv.catalog.entry_count() > 0
    # And a default engine (no ``mv_auto``, no ``build_mv``) never
    # captures: no entry, no MVScan, identical answers.
    with PostgresRaw() as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        for __ in range(3):
            for sql in AGG_QUERIES:
                assert sorted(engine.query(sql).rows) == expected[sql]
                assert "MVScan" not in engine.explain(sql)
        assert engine.service.mv.catalog.entry_count() == 0
        assert_raw_served(engine)


def test_governor_accounting_balances_with_mvs(csv_path, tmp_path):
    """MVs compete in the same budget as maps and caches; the books
    must balance whatever got evicted along the way."""
    other = tmp_path / "u.csv"
    write_csv(other, ROWS[:900], SCHEMA)
    config = PostgresRawConfig(mv_auto=True, memory_budget=256 * 1024)
    with PostgresRawService(config) as service:
        service.register_csv("t", csv_path, SCHEMA)
        service.register_csv("u", other, SCHEMA)
        session = service.session()
        for __ in range(3):
            for sql in AGG_QUERIES:
                session.query(sql)
                session.query(sql.replace(" t", " u"))
        governor = service.governor
        assert governor.used_bytes <= governor.budget_bytes
        residency = governor.residency()
        assert governor.used_bytes == sum(r["nbytes"] for r in residency)
        by_kind = governor.stats()["by_kind"]
        assert by_kind.get("mv", 0) == service.mv.catalog.total_bytes()


def test_monitor_panels_render_mv_state(csv_path):
    config = PostgresRawConfig(mv_auto=True, memory_budget=8 * 1024 * 1024)
    with PostgresRaw(config) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        sql = AGG_QUERIES[0]
        engine.query(sql)
        engine.query(sql)
        panel = render_governor_panel(engine.service)
        assert "aggregate cache: 1 MVs" in panel
        assert "mv#" in panel and "t[region;" in panel
        table = render_query_signatures(engine.service)
        assert "materialized" in table
        assert "rent-ms  price-ms" in table.splitlines()[0]
        usage = engine.service.telemetry.registry.snapshot()
        mv_stats = usage["collectors"]["mv"]
        assert mv_stats["suggestions"][0]["status"] == "materialized"


def _hammer(service, thread_id, expected, errors, mismatches):
    session = service.session()
    try:
        for round_no in range(ROUNDS * 2):
            offset = (thread_id + round_no) % len(AGG_QUERIES)
            for i in range(len(AGG_QUERIES)):
                sql = AGG_QUERIES[(offset + i) % len(AGG_QUERIES)]
                rows = sorted(session.query(sql).rows)
                if rows != expected[sql]:
                    mismatches.append((thread_id, sql))
    except Exception as exc:
        errors.append((thread_id, repr(exc)))


@pytest.mark.parametrize(
    "label,config",
    [
        (
            "governed",
            PostgresRawConfig(
                mv_auto=True,
                memory_budget=8 * 1024 * 1024,
                max_concurrent_queries=8,
            ),
        ),
        (
            "tiny_budget",
            PostgresRawConfig(
                mv_auto=True,
                memory_budget=64 * 1024,
            ),
        ),
    ],
)
def test_concurrent_aggregate_hammer(csv_path, label, config):
    """8 threads race discovery, capture, serve and eviction; every
    answer matches a fresh MV-less engine and the books balance."""
    expected = reference(csv_path, AGG_QUERIES)
    with PostgresRawService(config) as service:
        service.register_csv("t", csv_path, SCHEMA)
        errors: list = []
        mismatches: list = []
        threads = [
            threading.Thread(
                target=_hammer,
                args=(service, i, expected, errors, mismatches),
            )
            for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "hammer hung"
        assert errors == []
        assert mismatches == []
        # The cache actually engaged under the race...
        stats = service.mv.stats()
        assert stats["builds"] >= 1
        assert stats["hits"] + stats["partial_hits"] >= 1
        # ...and the accounting came out balanced.
        governor = service.governor
        assert governor.used_bytes == sum(
            r["nbytes"] for r in governor.residency()
        )
        assert governor.used_bytes <= governor.budget_bytes
