"""E14 — multi-format in-situ scans and vertical persistence.

Prices the format-adapter refactor.  CSV and JSONL files carrying the
same rows are scanned cold (first touch builds the positional map) and
warm (map + cache hot); a third pair of arms prices vertical
persistence — the selective projection's columns loaded into the
columnstore (rent-or-buy) versus the same warm scan with
``vp_enabled=False``, which jumps them through the positional map on
every repeat.

Asserts JSONL answers are row-identical to CSV's on every arm and that
a scan of loaded columns never loses to the map jumps it replaces.
"""

from __future__ import annotations

from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.core.metrics import Stopwatch
from repro.rawio.writer import write_csv, write_jsonl

from .conftest import emit_bench_artifact, print_records, scaled_rows

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "integer"), ("c", "text"), ("d", "float")]
)

#: Selective: ``a`` and ``d`` are converted for survivors only, so they
#: stay out of the cache and warm repeats jump them through the map.
SQL = "SELECT a, d FROM t WHERE b < 5000"

#: Timed repetitions per warm arm (cold arms always run once).
REPEATS = 15


def _qps(engine, sql: str, repeats: int = REPEATS) -> float:
    watch = Stopwatch()
    for __ in range(repeats):
        engine.query(sql)
    wall = watch.elapsed()
    return repeats / wall if wall else float("inf")


def test_format_scan(benchmark, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("format_scan")
    n_rows = scaled_rows(40_000)
    rows = [
        (i, i * 7 % 10_000, f"r{i % 97}", (i % 1000) / 8.0)
        for i in range(n_rows)
    ]
    csv_path = tmp / "t.csv"
    jsonl_path = tmp / "t.jsonl"
    write_csv(csv_path, rows, SCHEMA)
    write_jsonl(jsonl_path, rows, SCHEMA)

    plain = PostgresRawConfig()
    vp_config = PostgresRawConfig(
        memory_budget=256 * 1024 * 1024,
        vp_enabled=True,
        vp_dir=str(tmp / "vp"),
    )

    def sweep():
        records = []
        expect = None
        # One engine per format: cold first touch, then warm repeats.
        for fmt, path, register in (
            ("csv", csv_path, "register_csv"),
            ("jsonl", jsonl_path, "register_jsonl"),
        ):
            with PostgresRaw(plain) as engine:
                getattr(engine, register)("t", path, SCHEMA)
                cold_watch = Stopwatch()
                got = engine.query(SQL).rows
                cold_s = cold_watch.elapsed()
                if expect is None:
                    expect = got
                else:
                    assert got == expect, f"{fmt} diverged from csv"
                warm = _qps(engine, SQL)
            records.append(
                {
                    "arm": f"{fmt}-cold",
                    "qps": 1.0 / cold_s if cold_s else 0.0,
                }
            )
            records.append({"arm": f"{fmt}-warm", "qps": warm})

        # Vertical persistence: the warm repeats' map jumps pay the rent
        # of ``a`` and ``d`` until a scan loads them; later scans read
        # them from the columnstore.  With VP off they jump every time.
        qps = {}
        for arm, config in (("vp-loaded", vp_config), ("map-jumped", plain)):
            with PostgresRaw(config) as engine:
                engine.register_csv("t", csv_path, SCHEMA)
                for __ in range(4):
                    assert engine.query(SQL).rows == expect
                served = "columnstore: a, d" in engine.explain(
                    "SELECT a, d FROM t"
                )
                assert served == (config is vp_config), arm
                qps[arm] = _qps(engine, SQL)
        records.extend({"arm": arm, "qps": v} for arm, v in qps.items())
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_arm = {r["arm"]: r["qps"] for r in records}
    vp_speedup = by_arm["vp-loaded"] / by_arm["map-jumped"]
    jsonl_cold_ratio = by_arm["jsonl-cold"] / by_arm["csv-cold"]
    print_records(
        f"E14: format scans, {n_rows} rows, {REPEATS} repeats/arm "
        f"(vp speedup over map jumps: {vp_speedup:.1f}x)",
        records,
    )
    benchmark.extra_info["format_scan"] = records
    emit_bench_artifact(
        "format_scan",
        {
            "qps_csv_cold": by_arm["csv-cold"],
            "qps_csv_warm": by_arm["csv-warm"],
            "qps_jsonl_cold": by_arm["jsonl-cold"],
            "qps_jsonl_warm": by_arm["jsonl-warm"],
            "qps_vp_loaded": by_arm["vp-loaded"],
            "qps_map_jumped": by_arm["map-jumped"],
            "speedup_vp": vp_speedup,
            "jsonl_cold_ratio": jsonl_cold_ratio,
        },
    )

    # Serving loaded binary columns must beat jumping the raw file.
    assert by_arm["vp-loaded"] > by_arm["map-jumped"]
