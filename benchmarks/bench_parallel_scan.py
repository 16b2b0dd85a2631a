"""E11 — parallel chunked raw scan (repro.parallel).

OLA-RAW's point applied to PostgresRaw: cold in-situ scans should use
every core.  Two sweeps over worker counts (1/2/4/8) measure

* **cold-scan latency** — first query over a fresh file: the main
  thread builds the line index, then the pool parallelizes tokenizing,
  parsing and conversion of the whole file as the plan's tail;
* **repeat-query latency** — the adaptively-built structures must make
  the second query equally cheap on serial and parallel engines (the
  merged positional map/cache are identical by construction).

Shapes: a *wide* file (32 attributes — lots of tokenizing per tuple)
and a *narrow* one (4 attributes), matching the paper's observation
that attribute count drives raw-access cost.  Thread and process
backends are both swept; they run one algorithm and differ only in the
pool: threads win on GIL-free builds or I/O-bound scans, processes
escape the GIL for CPU-bound tokenizing.  Speedup
assertions are gated on the cores actually available — on a single-core
host the benchmark only verifies result equality and reports overhead.
"""

import os

import pytest

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
    uniform_table_spec,
)

from .conftest import emit_bench_artifact, print_records, scaled_rows

WORKER_COUNTS = [1, 2, 4, 8]
CHUNK_BYTES = 64 * 1024  # small enough that scaled-down CI files still chunk
CORES = os.cpu_count() or 1


def _cold_and_repeat(path, schema, sql, workers, backend):
    config = PostgresRawConfig(
        scan_workers=workers,
        parallel_chunk_bytes=CHUNK_BYTES,
        parallel_backend=backend,
    )
    # The engine recycles one scan pool across every query it plans;
    # closing the engine (context exit) is what tears the pool down.
    with PostgresRaw(config) as engine:
        engine.register_csv("t", path, schema)
        cold = engine.query(sql)
        repeat = engine.query(sql)
        # A second cold scan on the *same engine* (fresh table state over
        # the same file) reuses the live pool: the thread/fork start-up
        # paid by the first dispatch is amortized away.
        engine.register_csv("t2", path, schema)
        cold2 = engine.query(sql.replace("FROM t ", "FROM t2 "))
    return cold, repeat, cold2


def _sweep(path, schema, sql, backend):
    records = []
    reference = None
    for workers in WORKER_COUNTS:
        cold, repeat, cold2 = _cold_and_repeat(
            path, schema, sql, workers, backend
        )
        if reference is None:
            reference = cold
        assert cold.rows == reference.rows  # parallel == serial, always
        assert cold2.rows == reference.rows  # recycled pool, same rows
        records.append(
            {
                "backend": backend,
                "workers": workers,
                "chunks": cold.metrics.parallel_chunks,
                "cold_s": cold.metrics.total_seconds,
                "speedup": (
                    reference.metrics.total_seconds
                    / cold.metrics.total_seconds
                ),
                "warm_pool_s": cold2.metrics.total_seconds,
                "repeat_s": repeat.metrics.total_seconds,
            }
        )
    return records


@pytest.mark.parametrize(
    "label,n_attrs,rows",
    [("wide", 32, 120_000), ("narrow", 4, 120_000)],
)
def test_parallel_scan_sweep(
    benchmark, tmp_path_factory, label, n_attrs, rows
):
    tmp = tmp_path_factory.mktemp(f"par_{label}")
    n_rows = scaled_rows(rows)
    path = tmp / f"{label}.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs, n_rows, width=8, seed=31)
    )
    sql = f"SELECT a1, a{n_attrs - 1} FROM t WHERE a0 < 500000"

    def sweep():
        records = []
        for backend in ("thread", "process"):
            records.extend(_sweep(path, schema, sql, backend))
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    title = (
        f"E11: parallel cold scan, {label} file "
        f"({n_attrs} attrs x {n_rows} rows, "
        f"{path.stat().st_size >> 20} MiB, {CORES} cores)"
    )
    print_records(title, records)
    benchmark.extra_info[f"parallel_{label}"] = records
    emit_bench_artifact(
        f"parallel_scan_{label}",
        {
            "rows": n_rows,
            "serial_cold_s": records[0]["cold_s"],
            **{
                f"{r['backend']}_w{r['workers']}_speedup": r["speedup"]
                for r in records
            },
        },
    )

    serial_cold = records[0]["cold_s"]
    serial_repeat = records[0]["repeat_s"]
    for r in records:
        # The adaptive repeat query must stay fast regardless of how the
        # structures were built (serial or merged from chunks).  Since
        # the vectorized scan kernels collapsed the cold scan itself,
        # "fast" is measured against the serial engine's repeat, not the
        # cold scan: structures merged from parallel chunks must serve
        # warm queries as well as serially-built ones.
        assert r["repeat_s"] < serial_repeat * 2
    if CORES >= 2:
        # The acceptance check needs real cores: scan_workers=4 on the
        # process backend must beat the serial cold scan — provided the
        # file was big enough for the pool to engage at all.
        four = [
            r
            for r in records
            if r["backend"] == "process" and r["workers"] == 4
        ]
        assert four
        if four[0]["chunks"] > 1:
            assert four[0]["speedup"] > 1.1
    else:
        # Single-core host: no speedup is physically possible, so only
        # bound the thread pool's orchestration overhead (the process
        # backend pays fork + result pickling, which is amortized by
        # cores it does not have here — reported, not asserted).
        thread_worst = max(
            r["cold_s"] for r in records if r["backend"] == "thread"
        )
        assert thread_worst < serial_cold * 2.5
