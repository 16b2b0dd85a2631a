"""Plan cache + inline lane: repeat scan-free statements.

A statement whose plan scans no raw file (a level MV hit, a FROM-less
SELECT) runs on the caller's thread and is cached by its SQL text; a
repeat skips lexer, parser and planner.  Covered here:

* planning leaves its input statement unchanged, so one parsed
  statement plans any number of times (regression: ORDER BY over an
  aggregate failed with ``unknown column '__a0'`` from the 2nd run);
* every text entry point passes its SQL on (regression: the service's
  ``query`` dropped it from the slow-query log and root span);
* cached answers equal freshly parsed ones — and an MV-less oracle —
  across MV install, appends (lagging → threaded tail-merge → level),
  eviction, rewrite and drop + re-register with another schema;
* ``serve`` runs once per statement: mining, hit counters and capture
  timing do not depend on the cache;
* a cached shape keeps no evicted MV batch alive;
* an inline cursor holds no lock once returned, and closes cleanly;
* an 8-thread hammer with a concurrent appender stays correct and
  leaks no slot, lock or governed byte.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import PostgresRaw, PostgresRawConfig, PostgresRawService
from repro.catalog.schema import TableSchema
from repro.config import DEFAULT_MEMORY_BUDGET
from repro.errors import UpdateConflictError
from repro.executor.operators import SingleRowSource
from repro.rawio.writer import append_csv_rows, write_csv
from repro.service.plan_cache import PlanCache
from repro.sql.ast import select_to_sql, walk_expr
from repro.sql.parser import parse_select
from repro.sql.planner import LogicalPlan, Planner
from repro.telemetry.registry import MetricsRegistry

SCHEMA = TableSchema.from_pairs(
    [("g", "integer"), ("h", "integer"), ("v", "integer")]
)
#: Same table name, other column order and types: what a drop +
#: re-register may bring.
SCHEMA2 = TableSchema.from_pairs(
    [("w", "integer"), ("v", "integer"), ("g", "text"), ("h", "integer")]
)
ROWS = [(i % 4, i % 3, (i * 7) % 101 - 50) for i in range(300)]

TILE = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"
GLOBAL = "SELECT COUNT(*), SUM(v) FROM t"  # a partial hit off TILE
TOP = "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY s DESC, 1 LIMIT 2"
ORDINAL = "SELECT g, h, COUNT(*) FROM t GROUP BY g, h ORDER BY 2, 1"
CONSTANT = "SELECT 1 + 1 AS two"
#: Results of these are compared in order; the rest as multisets.
ORDERED = {TOP, ORDINAL}


def config(**overrides) -> PostgresRawConfig:
    base = dict(batch_size=64, mv_auto=True, mv_min_repeats=1)
    base.update(overrides)
    return PostgresRawConfig(**base)


def rows_for(schema: TableSchema, rows):
    if schema is SCHEMA:
        return rows
    return [(0, v, None if g is None else f"k{g}", h) for g, h, v in rows]


def oracle(path, schema, sql):
    """A fresh engine with the MV tier off: no cache, no MV."""
    with PostgresRaw(PostgresRawConfig(mv_enabled=False)) as ref:
        ref.register_csv("t", path, schema)
        return ref.query(sql).rows


def same(sql, got, want) -> bool:
    if sql in ORDERED:
        return got == want
    return sorted(got, key=repr) == sorted(want, key=repr)


def last_root(engine) -> dict:
    return engine.telemetry.tracer.recent_traces(1)[-1]["root"]


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    return path


# ----------------------------------------------------------------------
# The two prerequisite bugs.
# ----------------------------------------------------------------------


class TestStatementReuse:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY s DESC LIMIT 2",
            "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY 2, 1",
        ],
    )
    @pytest.mark.parametrize("mv", [False, True], ids=["raw", "mv"])
    def test_one_parse_plans_any_number_of_times(self, csv_path, sql, mv):
        want = oracle(csv_path, SCHEMA, sql)
        stmt = parse_select(sql)
        with PostgresRaw(config(mv_enabled=mv)) as engine:
            engine.register_csv("t", csv_path, SCHEMA)
            for __ in range(4):
                assert engine.execute(stmt).rows == want
            if mv:
                assert "MVScan [exact]" in engine.explain(sql)

    def test_planning_leaves_the_statement_unchanged(self, csv_path):
        stmt = parse_select(
            "SELECT g AS k, SUM(v) AS s FROM t WHERE h > 0 "
            "GROUP BY g HAVING COUNT(*) > 1 ORDER BY s DESC, 1"
        )
        before = select_to_sql(stmt)
        nodes = [
            (node, dict(vars(node)))
            for expr in [i.expr for i in stmt.items]
            + [stmt.where, stmt.having]
            + [o.expr for o in stmt.order_by]
            for node in walk_expr(expr)
        ]
        orders = [o.expr for o in stmt.order_by]
        with PostgresRaw(config()) as engine:
            engine.register_csv("t", csv_path, SCHEMA)
            for __ in range(3):  # raw, capture, MV hit
                engine.execute(stmt)
        assert select_to_sql(stmt) == before
        assert [o.expr for o in stmt.order_by] == orders
        for node, attrs in nodes:
            assert vars(node) == attrs


def test_every_text_entry_point_keeps_the_sql(csv_path):
    with PostgresRawService(config(slow_query_s=1e-9)) as service:
        service.register_csv("t", csv_path, SCHEMA)
        tracer = service.telemetry.tracer
        for run in (
            service.query,
            lambda sql: service.query_stream(sql).fetchall(),
            service.session().query,
            lambda sql: service.session().cursor(sql).fetchall(),
        ):
            sql = f"SELECT g FROM t WHERE v > {len(tracer.recent_traces())}"
            run(sql)
            assert service.telemetry.slow_queries()[-1]["sql"] == sql
            assert tracer.recent_traces(1)[-1]["root"]["attrs"]["sql"] == sql


# ----------------------------------------------------------------------
# Hit path.
# ----------------------------------------------------------------------


class TestHitPath:
    def test_repeat_skips_parser_and_planner(self, csv_path, monkeypatch):
        with PostgresRaw(config()) as engine:
            engine.register_csv("t", csv_path, SCHEMA)
            want = engine.query(TILE).rows  # raw + capture
            engine.query(TILE)  # MV hit: planned, then cached
            counter = engine.telemetry.registry.counter
            hits = counter("plan_cache_hits_total").value
            inline = counter("inline_queries_total").value
            calls = []
            from repro.service import service as service_module

            monkeypatch.setattr(
                service_module,
                "parse_select",
                lambda sql: calls.append("parse"),
            )
            monkeypatch.setattr(
                Planner, "plan", lambda *a, **k: calls.append("plan")
            )
            for __ in range(3):
                assert engine.query(TILE).rows == want
            assert calls == []
            assert counter("plan_cache_hits_total").value == hits + 3
            assert counter("inline_queries_total").value == inline + 3
            assert last_root(engine)["attrs"]["lane"] == "inline"

    def test_scanning_plans_are_threaded_and_never_cached(self, csv_path):
        with PostgresRaw(config()) as engine:
            engine.register_csv("t", csv_path, SCHEMA)
            cache = engine.service.plan_cache
            for __ in range(3):
                engine.query("SELECT g, v FROM t WHERE v > 10")
                assert last_root(engine)["attrs"]["lane"] == "threaded"
            assert len(cache) == 0
            assert engine.query(CONSTANT).rows == [(2,)]
            assert CONSTANT in cache
            assert engine.query(CONSTANT).rows == [(2,)]
            assert last_root(engine)["attrs"]["lane"] == "inline"

    def test_explain_names_the_lane_and_leaves_the_cache_alone(
        self, csv_path
    ):
        with PostgresRaw(config()) as engine:
            engine.register_csv("t", csv_path, SCHEMA)
            engine.query(TILE)  # captures
            counter = engine.telemetry.registry.counter
            before = (
                counter("plan_cache_hits_total").value,
                counter("plan_cache_misses_total").value,
            )
            text = engine.explain(TILE)
            assert "MVScan [exact]" in text
            assert text.endswith("-- lane: inline (no raw scan)")
            assert "lane" not in engine.explain("SELECT g FROM t")
            assert len(engine.service.plan_cache) == 0
            assert (
                counter("plan_cache_hits_total").value,
                counter("plan_cache_misses_total").value,
            ) == before

    def test_serve_runs_once_and_mining_is_cache_independent(
        self, csv_path, tmp_path
    ):
        """The same statement stream through the text API (plan cache)
        and through pre-parsed statements (never cached) mines, counts
        and captures identically."""
        other = tmp_path / "u.csv"
        write_csv(other, ROWS, SCHEMA)
        script = [TILE, GLOBAL, TOP, TILE, GLOBAL, "append", TILE]
        script += [GLOBAL, TILE, TOP, ORDINAL, ORDINAL, ORDINAL, TOP]
        trails = []
        for path, text in ((csv_path, True), (other, False)):
            with PostgresRaw(config(mv_min_repeats=2)) as engine:
                engine.register_csv("t", path, SCHEMA)
                mv = engine.service.mv
                served = []
                serve = mv.serve

                def counting(sig, record=True, serve=serve, served=served):
                    served.append(record)
                    return serve(sig, record=record)

                mv.serve = counting
                counter = engine.telemetry.registry.counter
                trail = []
                for step in script:
                    if step == "append":
                        append_csv_rows(path, ROWS[:25], SCHEMA)
                        continue
                    before = len(served)
                    if text:
                        engine.query(step)
                    else:
                        engine.execute(parse_select(step))
                    assert served[before:] == [True]
                    trail.append(
                        (
                            counter("mv_hits_total").value,
                            counter("mv_partial_hits_total").value,
                            counter("mv_misses_total").value,
                            counter("mv_tail_merges_total").value,
                            mv.catalog.builds,
                        )
                    )
                trails.append(trail)
                if text:
                    assert counter("plan_cache_hits_total").value > 0
        assert trails[0] == trails[1]


# ----------------------------------------------------------------------
# Cached == fresh == oracle, across the MV lifecycle.
# ----------------------------------------------------------------------

QUERIES = [TILE, GLOBAL, TOP, ORDINAL, CONSTANT]
table_rows = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(-50, 50)
    ),
    min_size=1,
    max_size=40,
)
actions = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(QUERIES)),
        st.tuples(st.just("append"), table_rows),
        st.tuples(st.just("rewrite"), table_rows),
        st.tuples(st.just("evict"), st.none()),
        st.tuples(st.just("reregister"), table_rows),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=30, deadline=None)
@given(
    rows=table_rows,
    steps=actions,
    budget=st.sampled_from([DEFAULT_MEMORY_BUDGET, 48 << 10]),
)
def test_cached_plans_answer_like_fresh_ones(
    tmp_path_factory, rows, steps, budget
):
    tmp = tmp_path_factory.mktemp("plan_cache")
    path, schema = tmp / "t0.csv", SCHEMA
    write_csv(path, rows, schema)
    with PostgresRaw(config(memory_budget=budget)) as engine:
        engine.register_csv("t", path, schema)
        service = engine.service
        # Every query runs twice up front, so the loop below meets
        # warm, cached statements.
        for step in [("query", q) for q in QUERIES] * 2 + steps:
            kind, arg = step
            if kind == "append":
                append_csv_rows(path, rows_for(schema, arg), schema)
            elif kind == "rewrite":
                write_csv(path, rows_for(schema, arg), schema)
            elif kind == "evict":
                container = service.mv.catalog._tables.get("t")
                for mv_id in list(container.entries) if container else ():
                    container.governed_evict(mv_id)
            elif kind == "reregister":
                engine.drop_table("t")
                assert len(service.plan_cache) == 0
                schema = SCHEMA2 if schema is SCHEMA else SCHEMA
                path = tmp / f"t{len(list(tmp.iterdir()))}.csv"
                write_csv(path, rows_for(schema, arg), schema)
                engine.register_csv("t", path, schema)
            else:
                want = oracle(path, schema, arg)
                cached = engine.query(arg).rows
                fresh = engine.execute(parse_select(arg)).rows
                assert same(arg, cached, want), (arg, cached, want)
                assert same(arg, fresh, want), (arg, fresh, want)


def test_append_goes_threaded_then_inline_again(csv_path):
    with PostgresRaw(config()) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        engine.query(TILE)
        engine.query(TILE)
        assert TILE in engine.service.plan_cache
        append_csv_rows(csv_path, ROWS[:30], SCHEMA)
        rows = engine.query(TILE).rows  # lagging: tail-merge scans
        assert last_root(engine)["attrs"]["lane"] == "threaded"
        assert TILE not in engine.service.plan_cache
        assert same(TILE, rows, oracle(csv_path, SCHEMA, TILE))
        counter = engine.telemetry.registry.counter
        assert counter("mv_tail_merges_total").value == 1
        engine.query(TILE)  # level again: inline, cached anew
        assert last_root(engine)["attrs"]["lane"] == "inline"
        assert TILE in engine.service.plan_cache
        assert same(
            TILE, engine.query(TILE).rows, oracle(csv_path, SCHEMA, TILE)
        )
        assert last_root(engine)["attrs"]["lane"] == "inline"


def test_cached_sql_keeps_no_evicted_batch_alive(csv_path):
    with PostgresRaw(config()) as engine:
        engine.register_csv("t", csv_path, SCHEMA)
        for __ in range(3):
            engine.query(TILE)
        service = engine.service
        assert TILE in service.plan_cache
        (entry,) = service.mv.catalog.entries()
        column = weakref.ref(next(iter(entry.batch.columns.values())))
        container = service.mv.catalog._tables["t"]
        container.governed_evict(entry.mv_id)  # the governor's path
        del entry
        gc.collect()
        assert TILE in service.plan_cache
        assert column() is None
        # The next run re-plans over the raw file and stays correct.
        want = oracle(csv_path, SCHEMA, TILE)
        assert same(TILE, engine.query(TILE).rows, want)


# ----------------------------------------------------------------------
# Lock lifetime, shutdown, concurrency.
# ----------------------------------------------------------------------


def test_inline_cursor_holds_no_lock(csv_path):
    with PostgresRawService(config()) as service:
        service.register_csv("t", csv_path, SCHEMA)
        session = service.session()
        want = session.query(TILE).rows
        cursor = session.cursor(TILE)  # inline: already produced
        trace = service.telemetry.tracer.trace_dict(cursor.trace_id)
        assert trace["root"]["attrs"]["lane"] == "inline"
        acquired = threading.Event()

        def writer():
            with service.table_lock("t").write():
                acquired.set()

        t = threading.Thread(target=writer)
        t.start()
        assert acquired.wait(timeout=5)
        t.join(timeout=5)
        assert service.cursor_stats()["open"] == 1
        assert service.scheduler.stats()["active"] == 0
        assert sorted(cursor.fetchall().rows) == sorted(want)
        assert service.cursor_stats()["open"] == 0


def test_unread_inline_cursors_close_and_survive_shutdown(csv_path):
    service = PostgresRawService(config())
    service.register_csv("t", csv_path, SCHEMA)
    session = service.session()
    want = sorted(session.query(TILE).rows)
    closed, kept = session.cursor(TILE), session.cursor(TILE)
    closed.close()
    assert service.cursor_stats()["open"] == 1
    service.close()  # returns at once: nothing to unblock
    assert sorted(kept.fetchall().rows) == want
    kept.close()
    stats = service.cursor_stats()
    assert stats["open"] == 0 and stats["finished"] == stats["opened"]


def test_hammer_with_appender_stays_correct_and_leak_free(csv_path):
    n_threads, rounds, appends, tail = 8, 25, 6, ROWS[:20]
    # The answer after every whole append: a query sees one of these.
    answers = []
    for k in range(appends + 1):
        grown = ROWS + tail * k
        groups = {}
        for g, __, v in grown:
            n, s = groups.get(g, (0, 0))
            groups[g] = (n + 1, s + v)
        answers.append(sorted((g, n, s) for g, (n, s) in groups.items()))
    cfg = config(memory_budget=8 << 20, max_concurrent_queries=8)
    with PostgresRawService(cfg) as service:
        service.register_csv("t", csv_path, SCHEMA)
        lock = service.table_lock("t")
        errors: list = []
        wrong: list = []
        conflicts: list = []

        def client(i):
            session = service.session()
            try:
                for r in range(rounds):
                    try:
                        if (i + r) % 2:
                            rows = session.query(TILE).rows
                        else:
                            with session.cursor(TILE) as cursor:
                                rows = cursor.fetchall().rows
                    except UpdateConflictError:
                        # A threaded tail-merge whose file grew between
                        # its reconcile and its read: the typed outcome
                        # of that race; the next query reconciles.
                        conflicts.append(i)
                        continue
                    if sorted(rows) not in answers:
                        wrong.append(rows)
            except Exception as exc:
                errors.append(repr(exc))

        def appender():
            for __ in range(appends):
                # Under the write lock: a reconcile never sees half an
                # append, so every answer is some whole-append prefix.
                with lock.write():
                    append_csv_rows(csv_path, tail, SCHEMA)
                time.sleep(0.01)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(n_threads)
        ]
        threads.append(threading.Thread(target=appender))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "hammer hung"
        assert errors == [] and wrong == []
        # After a conflict a client's next query reconciles: at most
        # one conflict per client per append.
        assert len(conflicts) <= appends * n_threads
        assert sorted(service.query(TILE).rows) == answers[-1]

        counter = service.telemetry.registry.counter
        assert counter("inline_queries_total").value > 0
        sched = service.scheduler.stats()
        assert sched["active"] == 0 and sched["waiting"] == 0
        assert sched["admitted"] == sched["completed"]
        cursors = service.cursor_stats()
        assert cursors["open"] == 0
        assert cursors["opened"] == cursors["finished"]
        assert lock._readers == 0 and not lock._writer
        governor, state = service.governor, service.table_state("t")
        assert governor.used_bytes <= governor.budget_bytes
        assert service.mv.catalog.entry_count() == 1
        assert governor.used_bytes == (
            state.positional_map.used_bytes
            + state.cache.used_bytes
            + service.mv.catalog.total_bytes()
        )


def test_plan_cache_is_a_bounded_lru():
    registry = MetricsRegistry()
    cache = PlanCache(registry, capacity=2)
    shape = LogicalPlan(SingleRowSource(), [], {})
    for sql in ("a", "b"):
        cache.put(sql, parse_select("SELECT 1"), shape)
    assert cache.get("a") is not None  # "b" is now least recent
    cache.put("c", parse_select("SELECT 1"), shape)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.get("b") is None
    counter = registry.counter
    assert counter("plan_cache_evictions_total").value == 1
    assert counter("plan_cache_hits_total").value == 1
    assert counter("plan_cache_misses_total").value == 1
    stale = cache.get("a")
    cache.put("a", parse_select("SELECT 2"), shape)
    cache.discard("a", stale)  # replaced since: kept
    assert "a" in cache
    cache.clear()
    assert len(cache) == 0
