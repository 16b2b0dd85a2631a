"""Concurrent-service stress: many clients, one shared adaptive state.

8 client threads issue a mixed query sequence against the *same cold
table* — every thread starts while nothing is known about the file, so
structure discovery, installation, eviction and read-path jumps all
race.  Every result must be row-identical to a serial engine, and the
adaptive-state byte accounting must balance when the dust settles.

A mixed-lane hammer runs ``query()`` sessions (their plans pulled on
their own threads) next to slowly read cursors (producer threads)
while a writer appends to the file.

``REPRO_STRESS_ROUNDS`` scales the per-thread workload (``make stress``
raises it; the default keeps the tier-1 suite fast).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import PostgresRaw, PostgresRawConfig, PostgresRawService
from repro.catalog.schema import TableSchema
from repro.errors import UpdateConflictError
from repro.rawio.writer import append_csv_rows, write_csv

N_THREADS = 8
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "2"))

#: A mixed sequence: full scans, selective filters, aggregates, multi-
#: attribute projections — enough shapes to exercise cache hits, map
#: jumps, anchored tokenizing and selective tuple formation.
QUERIES = [
    "SELECT a0, a1 FROM t WHERE a2 < 500000",
    "SELECT a3 FROM t WHERE a0 >= 0",
    "SELECT COUNT(*) AS n FROM t",
    "SELECT a1, a4, a5 FROM t WHERE a3 < 250000",
    "SELECT SUM(a2) AS s FROM t WHERE a1 < 750000",
    "SELECT a0 FROM t WHERE a5 < 100000",
    "SELECT AVG(a4) AS m FROM t",
    "SELECT a2, a3 FROM t WHERE a4 >= 500000",
]


def serial_reference(path, schema, config):
    """Ground truth: the same queries on a fresh single-threaded engine."""
    with PostgresRaw(config) as engine:
        engine.register_csv("t", path, schema)
        return {sql: sorted(engine.query(sql).rows) for sql in QUERIES}


def consume_via_cursor(session, sql, fetch_size):
    """Stream the query through a cursor, fetchmany in odd sizes."""
    out = []
    with session.cursor(sql) as cursor:
        while True:
            got = cursor.fetchmany(fetch_size)
            out.extend(got)
            if len(got) < fetch_size:
                break
    return out


def hammer(service, thread_id, reference, errors, mismatches):
    session = service.session()
    # Half the clients consume through streaming cursors (odd fetch
    # sizes), half through the classic materialized API — both against
    # the same shared adaptive state, both must match serial exactly.
    streaming_client = thread_id % 2 == 1
    try:
        for round_no in range(ROUNDS):
            # Each thread walks the sequence with a different rotation so
            # the interleaving differs every run.
            offset = (thread_id + round_no) % len(QUERIES)
            for i in range(len(QUERIES)):
                sql = QUERIES[(offset + i) % len(QUERIES)]
                if streaming_client:
                    rows = sorted(
                        consume_via_cursor(session, sql, 61 + thread_id)
                    )
                else:
                    rows = sorted(session.query(sql).rows)
                if rows != reference[sql]:
                    mismatches.append(
                        (thread_id, sql, len(rows), len(reference[sql]))
                    )
    except Exception as exc:  # surfaced by the main thread
        errors.append((thread_id, repr(exc)))


@pytest.mark.parametrize(
    "label,config",
    [
        (
            "governed",
            PostgresRawConfig(
                memory_budget=8 * 1024 * 1024,
                max_concurrent_queries=8,
            ),
        ),
        (
            "default_budget",
            PostgresRawConfig(max_concurrent_queries=4),
        ),
        (
            "tiny_budget_pressure",
            PostgresRawConfig(
                memory_budget=96 * 1024,
                max_concurrent_queries=8,
            ),
        ),
    ],
)
def test_eight_threads_match_serial_engine(small_csv, label, config):
    path, schema = small_csv
    reference = serial_reference(path, schema, PostgresRawConfig())

    with PostgresRawService(config) as service:
        service.register_csv("t", path, schema)
        errors: list = []
        mismatches: list = []
        threads = [
            threading.Thread(
                target=hammer,
                args=(service, i, reference, errors, mismatches),
            )
            for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "stress test hung"
        assert errors == []
        assert mismatches == []

        # Scheduler accounting balances.
        sched = service.scheduler.stats()
        assert sched["active"] == 0 and sched["waiting"] == 0
        assert sched["admitted"] == sched["completed"]
        assert sched["admitted"] == N_THREADS * ROUNDS * len(QUERIES)
        assert sched["peak_concurrency"] <= config.max_concurrent_queries

        # Every streaming cursor was drained and retired.
        cursors = service.cursor_stats()
        assert cursors["open"] == 0
        assert cursors["abandoned"] == 0
        assert cursors["opened"] == cursors["finished"]

        # Adaptive-state byte accounting balances.
        state = service.table_state("t")
        governor = service.governor
        assert governor.used_bytes <= governor.budget_bytes
        assert governor.used_bytes == (
            state.positional_map.used_bytes + state.cache.used_bytes
        )
        # Every surviving structure is a coherent row prefix.
        n_rows = state.positional_map.n_rows
        assert n_rows == 5_000
        for chunk in state.positional_map.entries():
            assert 0 < chunk.rows <= n_rows
        for attr in state.cache.cached_attrs():
            assert 0 < state.cache.coverage_rows(attr) <= n_rows


def test_concurrent_queries_on_disjoint_tables(small_csv, mixed_csv):
    """Cross-table interleaving under one global budget: no interference
    in results, and residency reported per table."""
    small_path, small_schema = small_csv
    mixed_path, mixed_schema = mixed_csv
    config = PostgresRawConfig(memory_budget=16 * 1024 * 1024)

    with PostgresRaw() as serial:
        serial.register_csv("t", small_path, small_schema)
        serial.register_csv("m", mixed_path, mixed_schema)
        expect_t = sorted(
            serial.query("SELECT a0, a3 FROM t WHERE a1 < 400000").rows
        )
        expect_m = sorted(
            serial.query("SELECT id, price FROM m WHERE qty < 50").rows
        )

    with PostgresRawService(config) as service:
        service.register_csv("t", small_path, small_schema)
        service.register_csv("m", mixed_path, mixed_schema)
        results: dict[int, list] = {}
        errors: list = []

        def client(i):
            session = service.session()
            try:
                out = []
                for _ in range(ROUNDS + 1):
                    if i % 2:
                        out.append(
                            sorted(
                                session.query(
                                    "SELECT a0, a3 FROM t WHERE a1 < 400000"
                                ).rows
                            )
                        )
                    else:
                        out.append(
                            sorted(
                                session.query(
                                    "SELECT id, price FROM m WHERE qty < 50"
                                ).rows
                            )
                        )
                results[i] = out
            except Exception as exc:
                errors.append((i, repr(exc)))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        for i, outs in results.items():
            expected = expect_t if i % 2 else expect_m
            for out in outs:
                assert out == expected

        tables = {r["table"] for r in service.governor.residency()}
        assert tables == {"t", "m"}


def test_read_path_runs_shared_after_warmup(small_csv):
    """Once structures cover the table, repeat queries take the shared
    (read) lock path — visible in the lock counters."""
    path, schema = small_csv
    with PostgresRawService() as service:
        service.register_csv("t", path, schema)
        session = service.session()
        sql = "SELECT a0, a1 FROM t WHERE a2 < 500000"
        session.query(sql)  # cold: exclusive scan
        lock = service.table_lock("t")
        writes_after_warmup = lock.write_acquisitions
        reads_before = lock.read_acquisitions
        for _ in range(3):
            session.query(sql)
        assert lock.read_acquisitions == reads_before + 3
        # Repeat queries only take the exclusive lock for the per-query
        # reconcile/clock tick, never for the scan itself.
        assert lock.write_acquisitions == writes_after_warmup + 3


#: The mixed-lane hammer's table: row ``i`` is ``(i, i % 5, 7i % 101)``.
GROWING = TableSchema.from_pairs(
    [("id", "integer"), ("g", "integer"), ("v", "integer")]
)
#: Each statement's answer over the first ``n`` rows, sorted.
MIXED = {
    "SELECT id, v FROM t WHERE v < 30": lambda rows: [
        (i, v) for i, __, v in rows if v < 30
    ],
    "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g": lambda rows: [
        (g, len(vs), sum(vs))
        for g in sorted({r[1] for r in rows})
        for vs in [[v for __, h, v in rows if h == g]]
    ],
    "SELECT COUNT(*), SUM(v) FROM t": lambda rows: [
        (len(rows), sum(r[2] for r in rows))
    ],
    "SELECT id FROM t WHERE g = 2": lambda rows: [
        (i,) for i, g, __ in rows if g == 2
    ],
}


def _growing_rows(lo, hi):
    return [(i, i % 5, (i * 7) % 101) for i in range(lo, hi)]


def test_mixed_lanes_while_the_file_grows(tmp_path):
    """4 sessions loop ``query()``, 2 hold cursors open and read them
    slowly with ``fetchmany``, and a writer appends.  Every answer is
    the oracle's over one row prefix the file had, nobody waits out
    ``cursor_ttl_s``, and no slot, cursor or lock is left behind."""
    first, per_append, appends = 1_500, 40, 4 * ROUNDS
    path = tmp_path / "t.csv"
    write_csv(path, _growing_rows(0, first), GROWING)
    final = first + appends * per_append
    everything = _growing_rows(0, final)
    # Every answer a statement may give: one per prefix the file had.
    answers = {
        sql: [
            sorted(oracle(everything[: first + k * per_append]))
            for k in range(appends + 1)
        ]
        for sql, oracle in MIXED.items()
    }
    cfg = PostgresRawConfig(
        batch_size=128,
        stream_queue_batches=2,
        cursor_ttl_s=20.0,
        max_concurrent_queries=8,
        mv_auto=True,
    )
    failures: list = []
    done = threading.Event()

    def check(sql, rows):
        if sorted(rows) not in answers[sql]:
            failures.append((sql, len(rows)))

    def querier(session, offset):
        try:
            statements = list(MIXED)
            for round_no in range(ROUNDS * 3):
                for i in range(len(statements)):
                    k = (offset + round_no + i) % len(statements)
                    sql = statements[k]
                    try:
                        check(sql, session.query(sql).rows)
                    except UpdateConflictError:
                        pass  # the file grew under this very scan
        except Exception as exc:  # reported by the main thread
            failures.append(repr(exc))

    def slow_reader(session):
        try:
            while not done.is_set():
                for sql in MIXED:
                    rows = []
                    try:
                        with session.cursor(sql) as cursor:
                            while True:
                                more = cursor.fetchmany(50)
                                if not more:
                                    break
                                rows.extend(more)
                                time.sleep(0.001)
                    except UpdateConflictError:
                        continue
                    check(sql, rows)
        except Exception as exc:
            failures.append(repr(exc))

    with PostgresRawService(cfg) as service:
        service.register_csv("t", path, GROWING)
        queriers = [
            threading.Thread(target=querier, args=(service.session(), i))
            for i in range(4)
        ]
        readers = [
            threading.Thread(target=slow_reader, args=(service.session(),))
            for __ in range(2)
        ]
        for thread in queriers + readers:
            thread.start()
        for k in range(appends):
            lo = first + k * per_append
            append_csv_rows(path, _growing_rows(lo, lo + per_append), GROWING)
            time.sleep(0.02)
        for thread in queriers:
            thread.join(timeout=300)
        done.set()
        for thread in readers:
            thread.join(timeout=300)
        assert not any(t.is_alive() for t in queriers + readers), "hung"
        assert failures == []
        session = service.session()
        for sql in MIXED:
            check(sql, session.query(sql).rows)
        assert failures == []
        # No cursor waited out its TTL, and nothing is left behind.
        cursors = service.cursor_stats()
        assert cursors["open"] == 0 and cursors["abandoned"] == 0
        assert cursors["opened"] == cursors["finished"]
        sched = service.scheduler.stats()
        assert sched["active"] == 0 and sched["waiting"] == 0
        assert sched["admitted"] == sched["completed"]
        lock = service.table_lock("t")
        assert lock._readers == 0 and not lock._writer
