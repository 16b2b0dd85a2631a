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


SELECTIVE_ARMS = [
    ("all selective", PostgresRawConfig()),
    (
        "no selective tokenizing",
        PostgresRawConfig(selective_tokenizing=False),
    ),
    ("no selective parsing", PostgresRawConfig(selective_parsing=False)),
    (
        "no selective tuple formation",
        PostgresRawConfig(selective_tuple_formation=False),
    ),
]

#: Narrow query on a wide file: predicate on a0, project a5 — the
#: tokenize span (a0..a5) crosses four attributes the query never needs,
#: which is exactly what selective parsing refuses to convert.
SELECTIVE_QUERY = "SELECT a5 FROM t WHERE a0 < 100000"


def test_selective_mechanisms_ablation(benchmark, bench_csv):
    """DESIGN §5.2 — the three 'selective' mechanisms on cold queries.

    Paper shape: disabling selective tokenizing forces full-tuple splits
    (5x the fields for this query); disabling selective parsing converts
    every tokenized field; disabling selective tuple formation converts
    the projection for every row instead of the ~10% qualifying ones.
    """
    path, schema = bench_csv

    def run_all():
        results = {}
        for name, config in SELECTIVE_ARMS:
            engine = PostgresRaw(config)
            engine.register_csv("t", path, schema)
            results[name] = engine.query(SELECTIVE_QUERY).metrics
        return results

    metrics = benchmark.pedantic(run_all, rounds=1, iterations=1)
    records = [
        {
            "arm": name,
            "total_s": m.total_seconds,
            "fields_tokenized": m.fields_tokenized,
            "fields_converted": m.fields_converted,
        }
        for name, m in metrics.items()
    ]
    print_records("E6b: selective mechanisms (cold query)", records)
    benchmark.extra_info["selective"] = records

    by_arm = {r["arm"]: r for r in records}
    full = by_arm["all selective"]
    assert (
        by_arm["no selective tokenizing"]["fields_tokenized"]
        > full["fields_tokenized"] * 1.5
    )
    assert (
        by_arm["no selective parsing"]["fields_converted"]
        > full["fields_converted"] * 2
    )
    assert (
        by_arm["no selective tuple formation"]["fields_converted"]
        > full["fields_converted"] * 1.5
    )


def test_combination_policy_ablation(benchmark, bench_csv):
    """DESIGN §5.1 — the chunk-combination policy.

    With the policy on, querying two attributes that live in different
    chunks installs their combination as a dedicated chunk; off, the
    attributes stay scattered.
    """
    path, schema = bench_csv

    def run_arm(policy: bool):
        engine = PostgresRaw(
            PostgresRawConfig(
                pm_combination_policy=policy, enable_cache=False
            )
        )
        engine.register_csv("t", path, schema)
        engine.query("SELECT a1 FROM t")
        engine.query("SELECT a6 FROM t")
        engine.query("SELECT a1, a6 FROM t")  # triggers the policy
        warm = engine.query("SELECT a1, a6 FROM t").metrics.total_seconds
        chunks = {
            c.attrs for c in engine.table_state("t").positional_map.entries()
        }
        return warm, chunks

    def run_both():
        return run_arm(True), run_arm(False)

    (with_s, with_chunks), (without_s, without_chunks) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    records = [
        {
            "arm": "combination policy ON",
            "warm_s": with_s,
            "has_combined_chunk": (1, 6) in with_chunks,
        },
        {
            "arm": "combination policy OFF",
            "warm_s": without_s,
            "has_combined_chunk": (1, 6) in without_chunks,
        },
    ]
    print_records("E6c: chunk combination policy", records)
    benchmark.extra_info["combination"] = records
    assert (1, 6) in with_chunks
    assert (1, 6) not in without_chunks
