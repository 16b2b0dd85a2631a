"""Adaptive behaviour over query sequences: learning, budgets, eviction.

These are the dynamics Part II of the demo visualizes — structures grow
as a side-effect of queries, stabilize, and turn over under the memory
governor when the workload shifts and the budget is tight.
"""

import pytest

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
    uniform_table_spec,
)
from repro.monitor import SystemMonitorPanel
from repro.workload import EpochWorkload


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("adapt") / "t.csv"
    schema = generate_csv(path, uniform_table_spec(12, 4_000, seed=51))
    return path, schema


def _engine(dataset, **overrides):
    path, schema = dataset
    eng = PostgresRaw(PostgresRawConfig(**overrides))
    eng.register_csv("t", path, schema)
    return eng, schema


class TestLearningCurve:
    def test_structures_monotone_while_budget_allows(self, dataset):
        eng, schema = _engine(dataset)
        panel = SystemMonitorPanel(eng.table_state("t"))
        for attr in range(0, 12, 2):
            eng.query(f"SELECT a{attr} FROM t")
            panel.snapshot()
        series = [s.cache_bytes for s in panel.history]
        assert all(b >= a for a, b in zip(series, series[1:]))
        coverage = [s.pm_coverage for s in panel.history]
        assert coverage[-1] >= coverage[0]

    def test_repeat_query_latency_drops(self, dataset):
        eng, __ = _engine(dataset)
        q = "SELECT a2, a9 FROM t WHERE a5 < 300000"
        cold = eng.query(q).metrics
        warm = eng.query(q).metrics
        # Tokenizing disappears entirely once map + cache are warm.
        assert cold.tokenizing_seconds > 0
        assert warm.tokenizing_seconds == 0
        assert warm.fields_tokenized == 0

    def test_count_star_needs_only_line_index(self, dataset):
        eng, __ = _engine(dataset)
        eng.query("SELECT COUNT(*) AS n FROM t")
        second = eng.query("SELECT COUNT(*) AS n FROM t")
        # Tuple boundaries are remembered: no I/O, no tokenizing at all.
        assert second.metrics.bytes_read == 0
        assert second.metrics.fields_tokenized == 0


class TestBudgetsAndEviction:
    def test_pm_budget_respected_under_shifting_workload(self, dataset):
        budget = 200 * 1024
        eng, __ = _engine(dataset, memory_budget=budget, enable_cache=False)
        pm = eng.table_state("t").positional_map
        for attr in range(12):
            eng.query(f"SELECT a{attr} FROM t")
            assert pm.used_bytes <= budget
        assert pm.evictions > 0

    def test_cache_budget_respected(self, dataset):
        budget = 100 * 1024
        eng, __ = _engine(
            dataset, memory_budget=budget, enable_positional_map=False
        )
        cache = eng.table_state("t").cache
        for attr in range(12):
            eng.query(f"SELECT a{attr} FROM t")
            assert cache.used_bytes <= budget
        assert cache.evictions > 0

    def test_zero_budgets_still_correct(self, dataset):
        eng, __ = _engine(dataset, memory_budget=0)
        expected = eng.query("SELECT COUNT(*) AS n FROM t").scalar()
        assert eng.query("SELECT COUNT(*) AS n FROM t").scalar() == expected
        state = eng.table_state("t")
        assert state.positional_map.chunk_count == 0
        assert state.cache.entry_count == 0


class TestEpochWorkloadDynamics:
    def test_epoch_shift_changes_structures(self, dataset):
        eng, schema = _engine(dataset, memory_budget=420 * 1024)
        workload = EpochWorkload(
            "t",
            schema,
            n_epochs=3,
            queries_per_epoch=5,
            window_width=4,
            seed=5,
        )
        cache = eng.table_state("t").cache
        cached_per_epoch = []
        for epoch in workload.epochs():
            for query in epoch.queries:
                eng.query(query.to_sql())
            cached_per_epoch.append(set(cache.cached_attrs()))
        # Structures track the moving window: epochs differ in content.
        assert cached_per_epoch[0] != cached_per_epoch[-1]

    def test_within_epoch_latency_improves(self, dataset):
        eng, schema = _engine(dataset)
        workload = EpochWorkload(
            "t", schema, n_epochs=1, queries_per_epoch=6, window_width=3
        )
        times = []
        for __, query in workload.flat_queries():
            times.append(eng.query(query.to_sql()).metrics.total_seconds)
        # Adaptation: the average of later queries beats the first query.
        later = sum(times[1:]) / len(times[1:])
        assert later < times[0]


class TestStatisticsAdaptation:
    def test_statistics_widen_with_workload(self, dataset):
        eng, __ = _engine(dataset)
        stats = eng.table_state("t").statistics
        eng.query("SELECT a0 FROM t")
        assert stats.attribute_names() == ["a0"]
        eng.query("SELECT a3 FROM t WHERE a5 > 0")
        assert stats.attribute_names() == ["a0", "a3", "a5"]

    def test_reconverted_rows_are_observed_once(self, dataset):
        # No cache: every run converts ``a1`` again, and each row still
        # counts once.
        path, schema = dataset
        config = PostgresRawConfig.pm_only().with_overrides(batch_size=512)
        eng = PostgresRaw(config)
        eng.register_csv("t", path, schema)
        sql = "SELECT a1, COUNT(*) AS n FROM t GROUP BY a1"
        learned = []
        for __ in range(5):
            eng.query(sql)
            stats = eng.table_state("t").statistics.get("a1")
            learned.append(
                (
                    stats.rows_seen,
                    stats.null_count,
                    stats.min_value,
                    stats.max_value,
                    stats.sample.tolist(),
                )
            )
        assert learned[0][0] == 4_000
        assert learned == learned[:1] * 5
        eng.close()

    def test_join_order_flips_with_statistics(self, tmp_path):
        """E10: on-the-fly statistics steer join ordering."""
        big_path = tmp_path / "big.csv"
        big_schema = generate_csv(
            big_path, uniform_table_spec(3, 5_000, seed=1)
        )
        small_path = tmp_path / "small.csv"
        small_schema = generate_csv(
            small_path, uniform_table_spec(3, 50, seed=2)
        )
        eng = PostgresRaw()
        eng.register_csv("big", big_path, big_schema)
        eng.register_csv("small", small_path, small_schema)
        # Warm statistics so row estimates exist.
        eng.query("SELECT COUNT(a0) FROM big")
        eng.query("SELECT COUNT(a0) FROM small")
        plan = eng.explain(
            "SELECT COUNT(*) FROM big b JOIN small s ON b.a0 = s.a0"
        )
        # Statistics-informed physical plan: the hash table is built on
        # the smaller input (build side = second HashJoin child = the
        # last scan in the rendered tree).
        scans = [line for line in plan.splitlines() if "RawScan" in line]
        assert "small" in scans[-1]
        assert "big" in scans[0]
