"""E7 — storage budget sweeps (the demo's space knobs).

"We allow the user to vary the available space for indexing and caching
in order to examine the impact of these parameters on the performance."

Paper shape: performance improves with budget until the working set
fits, then flattens; below the working set eviction thrashes and warm
queries degrade toward the baseline.  Each sweep varies the engine's
one ``memory_budget`` with the other structure disabled, so the budget
is the swept structure's alone.
"""


from repro import PostgresRaw, PostgresRawConfig
from repro.workload import RandomSelectProjectWorkload

from .conftest import print_records

PM_BUDGETS = [0, 64 * 1024, 512 * 1024, 4 * 1024 * 1024, 64 * 1024 * 1024]
CACHE_BUDGETS = [
    0, 128 * 1024, 1024 * 1024, 8 * 1024 * 1024, 256 * 1024 * 1024
]


def _workload_times(engine, schema, n=8, seed=3):
    workload = RandomSelectProjectWorkload(
        "t", schema, projection_width=2, seed=seed
    )
    queries = [spec.to_sql() for spec in workload.queries(n)]
    for sql in queries:  # warm pass
        engine.query(sql)
    return sum(engine.query(sql).metrics.total_seconds for sql in queries)


def test_positional_map_budget_sweep(benchmark, bench_csv):
    path, schema = bench_csv

    def sweep():
        records = []
        for budget in PM_BUDGETS:
            engine = PostgresRaw(
                PostgresRawConfig(memory_budget=budget, enable_cache=False)
            )
            engine.register_csv("t", path, schema)
            seconds = _workload_times(engine, schema)
            pm = engine.table_state("t").positional_map
            records.append(
                {
                    "pm_budget_kib": budget // 1024,
                    "warm_workload_s": seconds,
                    "chunks": pm.chunk_count,
                    "evictions": pm.evictions,
                    "rejected": pm.rejected_installs,
                }
            )
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_records("E7a: positional map budget sweep", records)
    benchmark.extra_info["pm_sweep"] = records
    # More budget never hurts (within noise): the largest budget beats
    # the zero budget clearly.
    assert records[-1]["warm_workload_s"] < records[0]["warm_workload_s"]
    # Tight budgets show memory pressure: eviction churn or rejected
    # installs.
    assert any(
        r["evictions"] > 0 or r["rejected"] > 0 for r in records[1:3]
    )


def test_cache_budget_sweep(benchmark, bench_csv):
    path, schema = bench_csv

    def sweep():
        records = []
        for budget in CACHE_BUDGETS:
            engine = PostgresRaw(
                PostgresRawConfig(
                    memory_budget=budget, enable_positional_map=False
                )
            )
            engine.register_csv("t", path, schema)
            seconds = _workload_times(engine, schema)
            cache = engine.table_state("t").cache
            records.append(
                {
                    "cache_budget_kib": budget // 1024,
                    "warm_workload_s": seconds,
                    "entries": cache.entry_count,
                    "evictions": cache.evictions,
                }
            )
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_records("E7b: cache budget sweep", records)
    benchmark.extra_info["cache_sweep"] = records
    assert records[-1]["warm_workload_s"] < records[0]["warm_workload_s"]
