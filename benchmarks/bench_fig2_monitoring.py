"""E1 / Figure 2 — The System Monitoring Panel.

Regenerates the demo's monitoring series: cache utilization (%),
positional-map storage and file-coverage as a sequence of queries
arrives.  Paper shape: both structures fill monotonically while budget
allows, then plateau; the coverage grid shows exactly the attributes the
workload touched.
"""


from repro import PostgresRaw, PostgresRawConfig
from repro.monitor import SystemMonitorPanel
from repro.workload import RandomSelectProjectWorkload

from .conftest import print_records


def test_fig2_monitoring_series(benchmark, bench_csv):
    path, schema = bench_csv

    def run_sequence():
        engine = PostgresRaw(
            PostgresRawConfig(memory_budget=8 * 1024 * 1024)
        )
        engine.register_csv("t", path, schema)
        panel = SystemMonitorPanel(engine.table_state("t"))
        workload = RandomSelectProjectWorkload(
            "t", schema, projection_width=2, seed=7
        )
        for spec in workload.queries(12):
            engine.query(spec.to_sql())
            panel.snapshot()
        return panel

    panel = benchmark.pedantic(run_sequence, rounds=1, iterations=1)
    records = [
        {
            "query": snap.query_index,
            "cache_util_pct": snap.cache_utilization * 100,
            "cache_entries": snap.cache_entries,
            "pm_kib": snap.pm_bytes / 1024,
            "pm_chunks": snap.pm_chunks,
            "pm_coverage_pct": snap.pm_coverage * 100,
        }
        for snap in panel.history
    ]
    print_records("Figure 2: System Monitoring Panel series", records)
    print()
    print(panel.render())
    benchmark.extra_info["figure2"] = records

    utils = [r["cache_util_pct"] for r in records]
    assert utils[-1] > 0
    assert all(b >= a for a, b in zip(utils, utils[1:]))  # fills up
    coverage = [r["pm_coverage_pct"] for r in records]
    assert coverage[-1] >= coverage[0]


def test_fig2_eviction_under_tight_budget(benchmark, bench_csv):
    """With a tight budget the cache's utilization saturates near 100%
    and eviction turnover begins (the panel's steady state).  The map
    is off, so the budget is the cache's alone."""
    path, schema = bench_csv

    def run_sequence():
        engine = PostgresRaw(
            PostgresRawConfig(
                memory_budget=600 * 1024, enable_positional_map=False
            )
        )
        engine.register_csv("t", path, schema)
        for attr in range(10):
            engine.query(f"SELECT a{attr} FROM t")
        return engine.table_state("t")

    state = benchmark.pedantic(run_sequence, rounds=1, iterations=1)
    assert state.cache.evictions > 0
    assert state.cache.used_bytes <= 600 * 1024
    print(
        f"\ncache evictions={state.cache.evictions}, "
        f"final utilization={state.cache.utilization() * 100:.1f}%"
    )
