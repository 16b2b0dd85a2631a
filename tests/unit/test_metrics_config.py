"""Unit tests for metrics accounting and engine configuration."""

import time

import pytest

from repro.config import PostgresRawConfig
from repro.core.metrics import BreakdownComponent, QueryMetrics, Stopwatch
from repro.errors import BudgetError


class TestQueryMetrics:
    def test_time_context_accumulates(self):
        metrics = QueryMetrics()
        with metrics.time(BreakdownComponent.TOKENIZING):
            time.sleep(0.002)
        with metrics.time(BreakdownComponent.TOKENIZING):
            time.sleep(0.002)
        assert metrics.tokenizing_seconds >= 0.004

    def test_begin_end_total(self):
        metrics = QueryMetrics()
        metrics.begin()
        time.sleep(0.002)
        metrics.end()
        assert metrics.total_seconds >= 0.002

    def test_component_order_matches_figure3(self):
        metrics = QueryMetrics()
        assert list(metrics.component_seconds()) == [
            "processing",
            "io",
            "convert",
            "parsing",
            "tokenizing",
            "nodb",
        ]

    def test_settle_processing_residual(self):
        metrics = QueryMetrics()
        metrics.total_seconds = 1.0
        metrics.io_seconds = 0.2
        metrics.tokenizing_seconds = 0.3
        metrics.settle_processing()
        assert metrics.processing_seconds == pytest.approx(0.5)

    def test_settle_processing_clamps_nonnegative(self):
        metrics = QueryMetrics()
        metrics.total_seconds = 0.1
        metrics.io_seconds = 0.5
        metrics.settle_processing()
        assert metrics.processing_seconds == 0.0

    def test_merge(self):
        a = QueryMetrics(io_seconds=0.1, cache_hits=2, bytes_read=10)
        b = QueryMetrics(io_seconds=0.2, cache_hits=3, bytes_read=5)
        a.merge(b)
        assert a.io_seconds == pytest.approx(0.3)
        assert a.cache_hits == 5
        assert a.bytes_read == 15

    def test_add_component(self):
        metrics = QueryMetrics()
        metrics.add(BreakdownComponent.NODB, 0.25)
        assert metrics.nodb_seconds == 0.25

    def test_stopwatch(self):
        watch = Stopwatch()
        time.sleep(0.002)
        first = watch.restart()
        assert first >= 0.002
        assert watch.elapsed() < first


class TestPostgresRawConfig:
    def test_defaults_enable_everything(self):
        config = PostgresRawConfig()
        assert config.enable_positional_map
        assert config.enable_cache
        assert config.enable_statistics
        assert config.selective_tokenizing
        assert config.selective_parsing
        assert config.selective_tuple_formation

    def test_baseline_disables_adaptive_parts(self):
        config = PostgresRawConfig.baseline()
        assert not config.enable_positional_map
        assert not config.enable_cache
        assert not config.enable_statistics
        # Selective scanning stays on (shared scan operator).
        assert config.selective_tokenizing

    def test_pm_only_and_cache_only(self):
        assert not PostgresRawConfig.pm_only().enable_cache
        assert PostgresRawConfig.pm_only().enable_positional_map
        assert not PostgresRawConfig.cache_only().enable_positional_map
        assert PostgresRawConfig.cache_only().enable_cache

    def test_with_overrides_is_pure(self):
        base = PostgresRawConfig()
        derived = base.with_overrides(memory_budget=123)
        assert derived.memory_budget == 123
        assert base.memory_budget != 123

    @pytest.mark.parametrize(
        "field,value",
        [
            ("memory_budget", -1),
            ("batch_size", 0),
            ("histogram_buckets", -2),
            ("scan_workers", 0),
            ("scan_workers", -3),
            ("parallel_chunk_bytes", 0),
            ("parallel_chunk_bytes", -1),
            ("parallel_backend", "fibers"),
            ("parallel_backend", ""),
        ],
    )
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(BudgetError):
            PostgresRawConfig(**{field: value})

    def test_parallel_defaults_keep_serial_path(self):
        config = PostgresRawConfig()
        assert config.scan_workers == 1
        assert config.parallel_backend == "thread"
        assert config.parallel_chunk_bytes > 0

    def test_parallel_overrides_accepted(self):
        config = PostgresRawConfig().with_overrides(
            scan_workers=8,
            parallel_chunk_bytes=4096,
            parallel_backend="process",
        )
        assert config.scan_workers == 8
        assert config.parallel_chunk_bytes == 4096
        assert config.parallel_backend == "process"


class TestParallelMetricsAccounting:
    def test_absorb_workers_scales_to_wall_time(self):
        main = QueryMetrics()
        workers = []
        for __ in range(4):
            w = QueryMetrics()
            w.tokenizing_seconds = 0.3
            w.convert_seconds = 0.1
            w.fields_tokenized = 100
            w.bytes_read = 10
            workers.append(w)
        main.absorb_workers(0.5, workers)
        # Volume counters add exactly; seconds are apportioned wall time.
        assert main.fields_tokenized == 400
        assert main.bytes_read == 40
        assert main.parallel_chunks == 4
        assert main.accounted_seconds() == pytest.approx(0.5)
        assert main.tokenizing_seconds == pytest.approx(0.5 * 0.75)
        assert main.convert_seconds == pytest.approx(0.5 * 0.25)
        assert len(main.worker_breakdowns) == 4

    def test_absorb_workers_with_zero_cpu_charges_io(self):
        main = QueryMetrics()
        main.absorb_workers(0.25, [QueryMetrics(), QueryMetrics()])
        assert main.io_seconds == pytest.approx(0.25)

    def test_merge_extends_worker_breakdowns(self):
        a, b = QueryMetrics(), QueryMetrics()
        b.absorb_workers(0.1, [QueryMetrics()])
        a.merge(b)
        assert a.parallel_scans == 1
        assert a.parallel_scan_seconds == pytest.approx(0.1)
        assert len(a.worker_breakdowns) == 1
