"""The serving layer's moving parts in isolation: RW locks, admission
control, sessions, pool recycling and service lifecycle."""

from __future__ import annotations

import gc
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
from repro.core.raw_scan import RawScan
from repro.errors import AdmissionError, CatalogError, ServiceError
from repro.service import QueryScheduler, RWLock


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # both threads must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert lock.read_acquisitions == 2

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order: list[str] = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)
                order.append("writer")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("reader")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(timeout=5)
        tr.join(timeout=5)
        assert order == ["writer", "reader"]
        assert lock.read_contentions >= 1

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        t = threading.Thread(target=lock.acquire_write)
        t.start()
        for _ in range(100):  # wait until the writer queues up
            if lock.write_contentions:
                break
            time.sleep(0.01)
        got_read = []
        tr = threading.Thread(
            target=lambda: (lock.acquire_read(), got_read.append(True))
        )
        tr.start()
        time.sleep(0.05)
        assert not got_read  # writer preference: reader is held back
        lock.release_read()
        t.join(timeout=5)  # writer gets in first
        lock.release_write()
        tr.join(timeout=5)
        assert got_read


class TestScheduler:
    def test_concurrency_is_capped(self):
        scheduler = QueryScheduler(max_concurrent=2, queue_depth=16)
        active_high = []
        barrier = threading.Barrier(4, timeout=5)

        def work():
            barrier.wait()
            with scheduler.slot():
                active_high.append(scheduler.active)
                time.sleep(0.02)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert max(active_high) <= 2
        assert scheduler.peak_concurrency <= 2
        assert scheduler.admitted == 4
        assert scheduler.completed == 4

    def test_overload_rejected_fast(self):
        scheduler = QueryScheduler(max_concurrent=1, queue_depth=0)
        entered = threading.Event()
        release = threading.Event()

        def occupant():
            with scheduler.slot():
                entered.set()
                release.wait(timeout=5)

        t = threading.Thread(target=occupant)
        t.start()
        entered.wait(timeout=5)
        with pytest.raises(AdmissionError):
            with scheduler.slot():
                pass
        assert scheduler.rejected == 1
        release.set()
        t.join(timeout=5)


class TestServiceLifecycle:
    def test_sessions_are_independent_bookkeepers(self, small_csv):
        path, schema = small_csv
        with PostgresRawService() as service:
            service.register_csv("t", path, schema)
            s1 = service.session()
            s2 = service.session()
            assert s1.session_id != s2.session_id
            r = s1.query("SELECT a0 FROM t WHERE a1 < 500000")
            s1.query("SELECT a1 FROM t WHERE a0 < 0")
            assert s1.queries_issued == 2
            assert s1.rows_returned == len(r)
            assert s2.queries_issued == 0
            assert s1.total_seconds > 0

    def test_closed_service_refuses_work(self, small_csv):
        path, schema = small_csv
        service = PostgresRawService()
        service.register_csv("t", path, schema)
        session = service.session()
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            session.query("SELECT a0 FROM t")
        with pytest.raises(ServiceError):
            service.session()

    def test_engine_is_thin_wrapper_with_context_manager(self, small_csv):
        path, schema = small_csv
        with PostgresRaw() as engine:
            engine.register_csv("t", path, schema)
            assert engine.table_names() == ["t"]
            assert engine.service.table_state("t") is engine.table_state("t")
            result = engine.query("SELECT a0 FROM t WHERE a0 >= 0")
            assert len(result) == 5_000
        with pytest.raises(ServiceError):
            engine.query("SELECT a0 FROM t")

    def test_drop_table_unknown_raises_catalog_error(self):
        engine = PostgresRaw()
        with pytest.raises(CatalogError):
            engine.drop_table("nope")

    def test_lock_stats_visible_per_table(self, small_csv):
        path, schema = small_csv
        with PostgresRawService() as service:
            service.register_csv("t", path, schema)
            session = service.session()
            session.query("SELECT a0 FROM t WHERE a0 >= 0")
            stats = service.lock_stats()
            assert set(stats) == {"t"}
            assert stats["t"]["write_acquisitions"] >= 1


def test_read_path_scans_are_freed_without_a_collection(tmp_path):
    # A finished scan keeps its plan, which pins tier entries: the read
    # path's deferred installs must not keep it alive in a cycle.
    path = tmp_path / "t.csv"
    schema = generate_csv(path, uniform_table_spec(4, 500, seed=3))
    sql = "SELECT a1 FROM t WHERE a2 > 5"
    with PostgresRaw() as engine:
        engine.register_csv("t", path, schema)
        list(engine.query(sql))  # cold: the exclusive path
        gc.collect()
        gc.disable()
        try:
            for __ in range(3):
                list(engine.query(sql))  # cached: the shared-lock path
            live = [o for o in gc.get_objects() if isinstance(o, RawScan)]
        finally:
            gc.enable()
        assert live == []


class TestMonitorPanels:
    def test_governor_and_concurrency_panels_render(self, small_csv):
        from repro.monitor import (
            governor_report,
            render_concurrency_panel,
            render_governor_panel,
        )

        path, schema = small_csv
        config = PostgresRawConfig(memory_budget=4 * 1024 * 1024)
        with PostgresRawService(config) as service:
            service.register_csv("t", path, schema)
            session = service.session()
            session.query("SELECT a0, a1 FROM t WHERE a2 < 500000")

            report = governor_report(service)
            assert report["stats"]["used_bytes"] > 0
            kinds = {(r["table"], r["kind"]) for r in report["residency"]}
            assert kinds == {("t", "map"), ("t", "cache")}

            text = render_governor_panel(service)
            assert "global budget" in text and "t/map" in text
            text = render_concurrency_panel(service)
            assert "admitted: 1" in text and "t" in text

    def test_default_engine_reports_governor_stats(self, small_csv):
        from repro.config import DEFAULT_MEMORY_BUDGET
        from repro.monitor import governor_report, render_governor_panel

        path, schema = small_csv
        with PostgresRawService() as service:
            service.register_csv("t", path, schema)
            service.session().query("SELECT a0 FROM t WHERE a0 >= 0")
            report = governor_report(service)
            stats = report["stats"]
            assert stats["budget_bytes"] == DEFAULT_MEMORY_BUDGET
            assert stats["used_bytes"] == sum(
                r["nbytes"] for r in report["residency"]
            )
            assert any(r["nbytes"] for r in report["residency"])
            assert "global budget" in render_governor_panel(service)


class TestPoolRecycling:
    def test_pool_survives_across_queries(self, small_csv, tmp_path):
        path, schema = small_csv
        config = PostgresRawConfig(
            scan_workers=2, parallel_chunk_bytes=4 * 1024
        )
        with PostgresRaw(config) as engine:
            engine.register_csv("t", path, schema)
            engine.query("SELECT a0, a5 FROM t WHERE a1 >= 0")
            pool = engine.service._scan_pool()
            assert pool is not None
            first_dispatches = pool.dispatches
            assert first_dispatches >= 1
            assert pool.alive  # executor recycled, not torn down
            # Force a second parallel scan (append-free second table).
            import shutil

            path2 = tmp_path / "t2.csv"
            shutil.copy(path, path2)
            engine.register_csv("t2", path2, schema)
            engine.query("SELECT a0, a5 FROM t2 WHERE a1 >= 0")
            assert engine.service._scan_pool() is pool
            assert pool.dispatches > first_dispatches
        assert not pool.alive  # engine close shuts the pool down

    def test_serial_config_builds_no_pool(self, small_csv):
        path, schema = small_csv
        with PostgresRaw() as engine:
            engine.register_csv("t", path, schema)
            engine.query("SELECT a0 FROM t WHERE a0 >= 0")
            assert engine.service._scan_pool() is None
