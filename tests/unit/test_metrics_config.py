"""Unit tests for metrics accounting and engine configuration."""

import dataclasses
import importlib
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

    def test_baseline_disables_adaptive_parts(self):
        config = PostgresRawConfig.baseline()
        assert not config.enable_positional_map
        assert not config.enable_cache
        assert not config.enable_statistics

    def test_fields_are_the_knobs(self):
        # The scan always tokenizes, parses and forms tuples selectively
        # and the MV tier always exists: none of that has a switch.
        assert [f.name for f in dataclasses.fields(PostgresRawConfig)] == [
            "enable_positional_map",
            "enable_cache",
            "enable_statistics",
            "batch_size",
            "memory_budget",
            "max_concurrent_queries",
            "admission_queue_depth",
            "stream_queue_batches",
            "cursor_ttl_s",
            "slow_query_s",
            "mv_auto",
            "vp_enabled",
            "vp_dir",
        ]

    def test_unknown_knob_is_rejected(self):
        with pytest.raises(TypeError):
            PostgresRawConfig(no_such_knob=False)
        with pytest.raises(TypeError):
            PostgresRawConfig().with_overrides(no_such_knob=False)

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
        ],
    )
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(BudgetError):
            PostgresRawConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["scan_workers", "parallel_chunk_bytes", "parallel_backend"]
    )
    def test_scan_pool_knobs_are_gone(self, field):
        # Every scan is serial; a config naming a pool knob fails loudly
        # instead of being silently ignored.
        with pytest.raises(TypeError, match=field):
            PostgresRawConfig(**{field: 2})
        with pytest.raises(TypeError, match=field):
            PostgresRawConfig().with_overrides(**{field: 2})


@pytest.mark.parametrize("cli", ["repro.server", "repro.sharding"])
def test_clis_reject_scan_workers(cli, capsys):
    # Multi-core scale-out is ``--shards``; no CLI takes a scan pool size.
    parser = importlib.import_module(f"{cli}.__main__").build_parser()
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["--demo", "--scan-workers", "2"])
    assert info.value.code == 2
    assert "--scan-workers" in capsys.readouterr().err
    assert parser.parse_args(["--demo"]).demo
