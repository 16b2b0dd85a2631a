"""E6 — ablation of the NoDB components (the demo's enable/disable knobs).

"the user can enable or disable the NoDB components of PostgresRaw"

Four arms over the same warmed workload: full PM+C, positional map only,
cache only, neither (Baseline).  Paper shape: each component alone beats
the baseline; the combination wins; the map mainly kills tokenizing, the
cache additionally kills I/O + parsing + conversion.
"""

import pytest

from repro import PostgresRaw, PostgresRawConfig

from .conftest import print_records

QUERY = "SELECT a2, a6 FROM t WHERE a4 < 300000"

ARMS = [
    ("PM + Cache", PostgresRawConfig()),
    ("PM only", PostgresRawConfig.pm_only()),
    ("Cache only", PostgresRawConfig.cache_only()),
    ("Baseline (neither)", PostgresRawConfig.baseline()),
]


@pytest.fixture(scope="module")
def warmed_engines(bench_csv):
    path, schema = bench_csv
    engines = {}
    for name, config in ARMS:
        engine = PostgresRaw(config)
        engine.register_csv("t", path, schema)
        engine.query(QUERY)  # warm whatever the arm can warm
        engines[name] = engine
    return engines


def test_ablation_matrix(benchmark, warmed_engines):
    def run_all():
        return {
            name: engine.query(QUERY).metrics
            for name, engine in warmed_engines.items()
        }

    metrics = benchmark.pedantic(run_all, rounds=3, iterations=1)
    records = [
        {
            "arm": name,
            "total_s": m.total_seconds,
            "tokenizing_s": m.tokenizing_seconds,
            "parsing_s": m.parsing_seconds,
            "convert_s": m.convert_seconds,
            "io_s": m.io_seconds,
        }
        for name, m in metrics.items()
    ]
    print_records("E6: component ablation (warm queries)", records)
    benchmark.extra_info["ablation"] = records

    by_arm = {r["arm"]: r for r in records}
    # The map eliminates tokenizing.
    assert by_arm["PM only"]["tokenizing_s"] == 0.0
    assert by_arm["PM + Cache"]["tokenizing_s"] == 0.0
    # The baseline keeps paying it.
    assert by_arm["Baseline (neither)"]["tokenizing_s"] > 0
    # Every adaptive arm beats the baseline; the combination is best.
    base_total = by_arm["Baseline (neither)"]["total_s"]
    for arm in ("PM + Cache", "PM only", "Cache only"):
        assert by_arm[arm]["total_s"] < base_total
    assert (
        by_arm["PM + Cache"]["total_s"]
        <= min(by_arm["PM only"]["total_s"], by_arm["Cache only"]["total_s"])
        * 1.5
    )


@pytest.mark.parametrize("arm_name,config", ARMS, ids=[a for a, _ in ARMS])
def test_ablation_arm_warm_latency(benchmark, bench_csv, arm_name, config):
    """Individual timed arms (for the pytest-benchmark comparison table)."""
    path, schema = bench_csv
    engine = PostgresRaw(config)
    engine.register_csv("t", path, schema)
    engine.query(QUERY)
    benchmark(lambda: engine.query(QUERY))
