"""E15 — sharded serving-tier throughput (repro.sharding).

The scale-out story: one raw file hash-partitioned across N worker
processes (each a full engine + wire server over its slice) versus the
same file behind a single server, measured through the shard-aware
client:

* **Scatter-gather aggregates** — 4 client threads hammer rotating
  partial-aggregatable queries (COUNT/SUM/AVG/GROUP BY with moving
  predicates, MVs off so every query really scans).  Each shard scans
  1/N of the rows on its own core, so on multi-core hosts the 4-shard
  cluster must clear 1.5x the single-server qps.
* **Routed point lookups** — partition-key equality queries touch one
  shard only; qps should stay roughly flat with shard count (no fan-
  out tax on the routed path).
* **TTFB contrast** — time-to-first-row of a routed streaming cursor
  (rows come straight off one socket) vs a scattered aggregate (the
  merge must gather every shard first): the routed path must win.

Every configuration must return byte-identical answers — the sweep
asserts one grouped aggregate row-for-row across 1, 2 and 4 shards.

Emits ``BENCH_sharded.json`` (see ``conftest.emit_bench_artifact``).
"""

import os
import statistics
import threading

from repro import PostgresRawConfig
from repro.sharding import ShardCluster

from .conftest import emit_bench_artifact, print_records, scaled_rows

CORES = os.cpu_count() or 1
SHARD_COUNTS = [1, 2, 4]
N_THREADS = 4
ROUNDS_PER_THREAD = 3

#: Scatter-gather shapes; ``{x}`` rotates per (thread, round) so no
#: result cache can short-circuit the scan.
AGG_TEMPLATES = [
    "SELECT COUNT(*) AS n, SUM(a1) AS s FROM t WHERE a2 < {x}",
    "SELECT AVG(a3) AS m, MIN(a4) AS lo FROM t WHERE a1 < {x}",
    "SELECT a0 % 10 AS g, SUM(a2) AS s FROM t "
    "WHERE a3 < {x} GROUP BY a0 % 10",
]

CHECK_SQL = (
    "SELECT a0 % 10 AS g, COUNT(*) AS n, SUM(a1) AS s FROM t "
    "GROUP BY a0 % 10 ORDER BY g"
)

TTFB_SAMPLES = 8


def _agg_sql(thread: int, round_: int, template_index: int) -> str:
    template = AGG_TEMPLATES[template_index % len(AGG_TEMPLATES)]
    x = 100_000 + 87_000 * (thread + 1) + 53_000 * round_
    return template.format(x=x % 1_000_000)


def _run_agg_clients(client) -> tuple[float, int]:
    from repro.core.metrics import Stopwatch

    start = threading.Barrier(N_THREADS + 1, timeout=60)
    errors: list = []

    def worker(thread: int):
        try:
            start.wait()
            for round_ in range(ROUNDS_PER_THREAD):
                for t in range(len(AGG_TEMPLATES)):
                    client.query(_agg_sql(thread, round_, t))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    start.wait()
    watch = Stopwatch()
    for t in threads:
        t.join(timeout=300)
    wall = watch.elapsed()
    assert errors == []
    return wall, N_THREADS * ROUNDS_PER_THREAD * len(AGG_TEMPLATES)


def _run_routed_clients(client, keys: list[int]) -> tuple[float, int]:
    from repro.core.metrics import Stopwatch

    watch = Stopwatch()
    for key in keys:
        client.query(f"SELECT a0, a1 FROM t WHERE a0 = {key}")
    return watch.elapsed(), len(keys)


def _ttfb(client, sql: str) -> float:
    from repro.core.metrics import Stopwatch

    watch = Stopwatch()
    with client.cursor(sql) as cursor:
        cursor.fetchone()
        elapsed = watch.elapsed()
        cursor.close()
    return elapsed


def test_sharded_throughput(benchmark, tmp_path_factory):
    from repro import generate_csv, uniform_table_spec

    tmp = tmp_path_factory.mktemp("sharded")
    n_rows = scaled_rows(40_000)
    path = tmp / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=8, n_rows=n_rows, width=8, seed=77)
    )
    # Default config: no MV is captured (``mv_auto`` off), so rotating
    # predicates hit the raw scan path on every query and qps measures
    # the sharded scan fan-out, not a cache.
    config = PostgresRawConfig()

    def sweep():
        records = []
        check_rows = {}
        ttfb = {}
        for shards in SHARD_COUNTS:
            cluster = ShardCluster(shards=shards, config=config)
            cluster.add_table("t", path, key="a0", schema=schema)
            cluster.start()
            try:
                with cluster.client(max_size=N_THREADS + 2) as client:
                    # Warm every shard's adaptive structures (and pick
                    # real partition-key values for the routed leg).
                    for t in range(len(AGG_TEMPLATES)):
                        client.query(_agg_sql(0, 0, t))
                    keys = [
                        row[0]
                        for row in client.query(
                            "SELECT a0 FROM t ORDER BY a0 LIMIT 24"
                        ).rows
                    ]
                    check_rows[shards] = client.query(CHECK_SQL).rows

                    agg_wall, agg_queries = _run_agg_clients(client)
                    routed_wall, routed_queries = _run_routed_clients(
                        client, keys
                    )
                    records.append(
                        {
                            "shards": shards,
                            "agg_qps": (
                                agg_queries / agg_wall
                                if agg_wall
                                else float("inf")
                            ),
                            "routed_qps": (
                                routed_queries / routed_wall
                                if routed_wall
                                else float("inf")
                            ),
                        }
                    )
                    if shards == SHARD_COUNTS[-1]:
                        key = keys[0]
                        routed_sql = (
                            f"SELECT a0, a1 FROM t WHERE a0 = {key}"
                        )
                        scatter_sql = _agg_sql(1, 1, 2)
                        ttfb = {
                            "routed_ttfb_s": statistics.median(
                                _ttfb(client, routed_sql)
                                for __ in range(TTFB_SAMPLES)
                            ),
                            "scatter_ttfb_s": statistics.median(
                                _ttfb(client, scatter_sql)
                                for __ in range(TTFB_SAMPLES)
                            ),
                        }
            finally:
                cluster.stop()
        return {
            "records": records,
            "check_rows": check_rows,
            "ttfb": ttfb,
        }

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    records = report["records"]
    print_records(
        f"sharded serving qps ({n_rows} rows, {N_THREADS} client "
        f"threads, {CORES} cores)",
        records,
    )
    by_shards = {r["shards"]: r for r in records}
    speedup_4x = by_shards[4]["agg_qps"] / by_shards[1]["agg_qps"]
    ttfb = report["ttfb"]
    print_records(
        "routed vs scattered TTFB (4 shards)",
        [
            {
                "path": "routed (one shard streams)",
                "ttfb_s": ttfb["routed_ttfb_s"],
            },
            {
                "path": "scattered (gather then merge)",
                "ttfb_s": ttfb["scatter_ttfb_s"],
            },
        ],
    )
    emit_bench_artifact(
        "sharded",
        {
            "rows": n_rows,
            "client_threads": N_THREADS,
            "agg_qps_1_shard": by_shards[1]["agg_qps"],
            "agg_qps_2_shards": by_shards[2]["agg_qps"],
            "agg_qps_4_shards": by_shards[4]["agg_qps"],
            "routed_qps_1_shard": by_shards[1]["routed_qps"],
            "routed_qps_4_shards": by_shards[4]["routed_qps"],
            "agg_speedup_4_shards": speedup_4x,
            "routed_ttfb_s": ttfb["routed_ttfb_s"],
            "scatter_ttfb_s": ttfb["scatter_ttfb_s"],
        },
    )

    # Correctness before speed: every shard count returns the same
    # grouped aggregate, row for row.
    assert (
        report["check_rows"][1]
        == report["check_rows"][2]
        == report["check_rows"][4]
    )
    assert report["check_rows"][1]  # and it is not vacuously empty
    for record in records:
        assert record["agg_qps"] > 0 and record["routed_qps"] > 0
    # The scale-out gate: each shard scans 1/4 of the rows on its own
    # core, so with real cores the 4-shard cluster must clear 1.5x the
    # single server on scatter-gather aggregates.  On fewer cores the
    # workers time-slice one CPU and the fan-out is pure overhead, so
    # the gate needs the hardware (same idiom as the parallel-scan and
    # wire benchmarks).
    if CORES >= 4:
        assert speedup_4x >= 1.5, (
            f"4-shard aggregate qps only {speedup_4x:.2f}x single-node"
        )
    # The routed path pays no fan-out tax: point lookups through the 4-
    # shard cluster keep at least half the single-server qps (they
    # touch one shard; the planner and pool add only microseconds).
    assert (
        by_shards[4]["routed_qps"] > by_shards[1]["routed_qps"] * 0.4
    )
    # Streaming contrast: a routed cursor's first row arrives before a
    # scattered aggregate can finish its gather+merge.
    assert ttfb["routed_ttfb_s"] < ttfb["scatter_ttfb_s"]
