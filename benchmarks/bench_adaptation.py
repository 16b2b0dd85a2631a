"""E3 / Part II "Query Adaptation" — epoch workload replay.

Select-Project queries organized into epochs, each epoch touching a
different part of the file.  Paper shape: latency spikes at every epoch
boundary (cold attributes) and drops within the epoch as the positional
map and cache adapt; tight budgets cause the previous epoch's state to
be evicted.
"""


from repro import PostgresRaw, PostgresRawConfig
from repro.workload import EpochWorkload

from .conftest import print_records


def test_epoch_adaptation_curve(benchmark, bench_csv):
    path, schema = bench_csv
    workload = EpochWorkload(
        "t",
        schema,
        n_epochs=3,
        queries_per_epoch=6,
        window_width=3,
        projection_width=2,
        seed=77,
    )

    def replay():
        engine = PostgresRaw(
            PostgresRawConfig(memory_budget=2 * 1024 * 1024)
        )
        engine.register_csv("t", path, schema)
        series = []
        for epoch_index, spec in workload.flat_queries():
            metrics = engine.query(spec.to_sql()).metrics
            series.append(
                {
                    "epoch": epoch_index,
                    "query": len(series),
                    "seconds": metrics.total_seconds,
                    "tokenizing": metrics.tokenizing_seconds,
                    "cache_hits": metrics.cache_hits,
                }
            )
        return series, engine.table_state("t")

    series, state = benchmark.pedantic(replay, rounds=1, iterations=1)
    print_records("Part II: Query Adaptation (per-query latency)", series)
    benchmark.extra_info["adaptation"] = series

    per_epoch = {}
    for row in series:
        per_epoch.setdefault(row["epoch"], []).append(row["seconds"])
    for epoch, times in per_epoch.items():
        tail_avg = sum(times[1:]) / len(times[1:])
        # Within every epoch, warmed queries beat the epoch opener.
        assert tail_avg < times[0], f"epoch {epoch} did not adapt"

    # Epoch openers pay tokenizing again (new attributes, cold).
    openers = [
        row for row in series if row["query"] in (0, 6, 12)
    ]
    assert all(row["tokenizing"] > 0 for row in openers[:1])


def test_epoch_eviction_turnover(benchmark, bench_csv):
    """Old epochs' attributes leave the structures under tight budgets —
    'old information may no longer be relevant and will be evicted'."""
    path, schema = bench_csv
    workload = EpochWorkload(
        "t", schema, n_epochs=3, queries_per_epoch=5, window_width=3, seed=5
    )

    def replay():
        engine = PostgresRaw(
            PostgresRawConfig(memory_budget=1700 * 1024)
        )
        engine.register_csv("t", path, schema)
        snapshots = []
        for epoch in workload.epochs():
            for spec in epoch.queries:
                engine.query(spec.to_sql())
            cache = engine.table_state("t").cache
            snapshots.append(
                {
                    "epoch": epoch.index,
                    "window": ",".join(epoch.attributes),
                    "cached": ",".join(
                        f"a{a}" for a in cache.cached_attrs()
                    ),
                    "evictions": cache.evictions,
                }
            )
        return snapshots

    snapshots = benchmark.pedantic(replay, rounds=1, iterations=1)
    print_records("Part II: structure turnover across epochs", snapshots)
    assert snapshots[-1]["evictions"] > 0
    assert snapshots[0]["cached"] != snapshots[-1]["cached"]
