"""E13 — adaptive materialized aggregate cache (repro.mv).

The NoDB economics one level up: positional maps amortize *tokenizing*,
cached columns amortize *parsing+conversion* — but a repeated aggregate
still pays the scan and hash-aggregation every run.  This benchmark
prices the third tier.  One engine runs with the default config (no
auto-materialization, so it never captures an MV) and fully warm
positional maps + cache (today's best case); a second runs with
auto-materialization on.  Arms:

* **cold** — first-ever aggregate over the raw file (builds the maps);
* **warm-maps** — repeat aggregate, maps+cache hot, no MV (baseline);
* **mv-hit** — the same aggregate served from its exact MV (no scan);
* **mv-partial** — a narrower global aggregate re-aggregated from the
  wider resident MV.

Asserts MV answers are row-identical to the raw engine's, the governed
accounting balances, and (at full scale) an MV hit clears >= 5x the
warm-maps qps — the acceptance gate for this subsystem.
"""

from __future__ import annotations

from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.core.metrics import Stopwatch
from repro.rawio.writer import write_csv

from .conftest import SCALE, emit_bench_artifact, print_records, scaled_rows

SCHEMA = TableSchema.from_pairs(
    [("region", "text"), ("amount", "integer"), ("qty", "integer")]
)

WIDE = (
    "SELECT region, SUM(amount) AS s, COUNT(*) AS n, AVG(amount) AS m "
    "FROM t GROUP BY region"
)
PARTIAL = "SELECT SUM(amount) AS s, COUNT(*) AS n FROM t"

#: Timed repetitions per arm (the cold arm always runs once).
REPEATS = 25


def _qps(engine, sql: str, repeats: int = REPEATS) -> float:
    watch = Stopwatch()
    for __ in range(repeats):
        engine.query(sql)
    wall = watch.elapsed()
    return repeats / wall if wall else float("inf")


def test_mv_cache(benchmark, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mv_cache")
    n_rows = scaled_rows(40_000)
    path = tmp / "t.csv"
    write_csv(
        path,
        [(f"r{i % 8}", i * 7 % 10_000, i % 13) for i in range(n_rows)],
        SCHEMA,
    )
    raw_config = PostgresRawConfig(memory_budget=256 * 1024 * 1024)
    mv_config = PostgresRawConfig(
        mv_auto=True, memory_budget=256 * 1024 * 1024
    )

    def sweep():
        records = []
        # Baseline engine: never captures an MV, everything else warm.
        with PostgresRaw(raw_config) as engine:
            engine.register_csv("t", path, SCHEMA)
            cold_watch = Stopwatch()
            expect_wide = sorted(engine.query(WIDE).rows)
            cold_s = cold_watch.elapsed()
            expect_partial = sorted(engine.query(PARTIAL).rows)
            qps_warm_wide = _qps(engine, WIDE)
            qps_warm_partial = _qps(engine, PARTIAL)
        records.append(
            {"arm": "cold", "qps": 1.0 / cold_s if cold_s else 0.0}
        )
        records.append({"arm": "warm-maps", "qps": qps_warm_wide})

        # MV engine: the first WIDE run pays its rent, which covers the
        # price of a budget that does not bind, so the second plan
        # captures; everything after is served without a scan.
        with PostgresRaw(mv_config) as engine:
            engine.register_csv("t", path, SCHEMA)
            engine.query(WIDE)
            engine.query(WIDE)
            assert "MVScan [exact]" in engine.explain(WIDE)
            assert sorted(engine.query(WIDE).rows) == expect_wide
            assert "MVScan [partial" in engine.explain(PARTIAL)
            assert sorted(engine.query(PARTIAL).rows) == expect_partial
            qps_mv_hit = _qps(engine, WIDE)
            qps_mv_partial = _qps(engine, PARTIAL)
            governor = engine.service.governor
            assert governor.used_bytes == sum(
                r["nbytes"] for r in governor.residency()
            )
            mv_stats = engine.service.mv.stats()
            assert mv_stats["mvs"] == 1 and mv_stats["builds"] == 1
        records.append({"arm": "mv-hit", "qps": qps_mv_hit})
        records.append({"arm": "mv-partial", "qps": qps_mv_partial})
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_arm = {r["arm"]: r["qps"] for r in records}
    speedup_hit = by_arm["mv-hit"] / by_arm["warm-maps"]
    speedup_partial = by_arm["mv-partial"] / by_arm["warm-maps"]
    print_records(
        f"E13: aggregate cache, {n_rows} rows, {REPEATS} repeats/arm "
        f"(mv-hit speedup over warm maps: {speedup_hit:.1f}x)",
        records,
    )
    benchmark.extra_info["mv_cache"] = records
    emit_bench_artifact(
        "mv_cache",
        {
            "cold_qps": by_arm["cold"],
            "qps_warm_maps": by_arm["warm-maps"],
            "qps_mv_hit": by_arm["mv-hit"],
            "qps_mv_partial": by_arm["mv-partial"],
            "speedup_mv_hit": speedup_hit,
            "speedup_mv_partial": speedup_partial,
        },
    )

    # Serving a resident aggregate must never lose to re-running it.
    assert by_arm["mv-hit"] > by_arm["warm-maps"]
    if SCALE >= 1.0:
        # The acceptance gate: >= 5x over fully warm positional maps.
        assert speedup_hit >= 5.0
        assert speedup_partial >= 2.0
