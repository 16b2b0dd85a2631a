"""The sharded serving tier end-to-end: real worker processes, real
sockets.

One :class:`ShardCluster` (2 shards, auth-tokened) serves a
partitioned table; clients obtained through the DSN surface must
answer exactly like a single-node engine over the unsplit file —
routed point lookups, scattered aggregates, streamed cursors — and
the coordinator must relay per-shard STATS.
"""

from __future__ import annotations

import socket

import pytest

import repro
from repro import (
    PostgresRaw,
    generate_csv,
    uniform_table_spec,
)
from repro.errors import ReproError, ShardingError
from repro.monitor import render_shard_panel
from repro.sharding import ShardCluster, ShardedConnectionPool

TOKEN = "s3cret"


@pytest.fixture(scope="module")
def cluster_and_single(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cluster")
    path = tmp / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=5, n_rows=3_000, seed=42)
    )
    single = PostgresRaw()
    single.register_csv("t", path, schema)
    cluster = ShardCluster(shards=2, auth_token=TOKEN)
    cluster.add_table("t", path, key="a0", schema=schema)
    cluster.start()
    try:
        yield cluster, single
    finally:
        cluster.stop()


@pytest.fixture
def client(cluster_and_single):
    cluster, __ = cluster_and_single
    with cluster.client() as client:
        yield client


def test_cluster_partitioned_the_file(cluster_and_single):
    cluster, __ = cluster_and_single
    assert len(cluster.addresses) == 2
    assert len(cluster.shard_paths["t"]) == 2
    assert all(p.exists() for p in cluster.shard_paths["t"])


def test_dsn_round_trip_connects_sharded(cluster_and_single):
    cluster, single = cluster_and_single
    dsn = cluster.dsn()
    assert dsn.startswith("raw://")
    assert "partition.t=a0:hash" in dsn
    with repro.connect(dsn) as client:
        assert isinstance(client, ShardedConnectionPool)
        total = client.query("SELECT COUNT(*) AS n FROM t").scalar()
    assert total == single.query("SELECT COUNT(*) AS n FROM t").scalar()


def test_scattered_aggregates_match_single_node(
    cluster_and_single, client
):
    __, single = cluster_and_single
    for sql in (
        "SELECT COUNT(*) AS n, SUM(a1) AS s, MIN(a2) AS lo, "
        "MAX(a2) AS hi FROM t",
        "SELECT AVG(a1) AS a FROM t WHERE a2 < 500000",
        "SELECT a0 % 7 AS b, COUNT(*) AS n, SUM(a3) AS s FROM t "
        "GROUP BY a0 % 7 ORDER BY b",
    ):
        expected = single.query(sql)
        got = client.query(sql)
        assert got.column_names == expected.column_names, sql
        assert got.rows == expected.rows, sql


def test_point_lookup_routes_and_matches(cluster_and_single, client):
    __, single = cluster_and_single
    key = single.query("SELECT a0 FROM t LIMIT 1").scalar()
    sql = f"SELECT a0, a1 FROM t WHERE a0 = {key}"
    assert client.explain(sql).startswith("Route [shard ")
    got = sorted(client.query(sql).rows)
    assert got == sorted(single.query(sql).rows)
    assert got  # the probe key must actually hit


def test_scatter_concat_matches_single_node(cluster_and_single, client):
    __, single = cluster_and_single
    sql = (
        "SELECT a0, a1 FROM t WHERE a3 < 300000 "
        "ORDER BY a0, a1, a2 LIMIT 40"
    )
    assert client.explain(sql).startswith("ScatterGather [concat]")
    assert client.query(sql).rows == single.query(sql).rows


def test_cursor_streams_merged_rows(cluster_and_single, client):
    __, single = cluster_and_single
    sql = "SELECT a0, a2 FROM t ORDER BY a0, a2, a1 LIMIT 100"
    with client.cursor(sql) as cursor:
        first = cursor.fetchmany(10)
        rest = cursor.fetchall()
    expected = single.query(sql).rows
    assert first == expected[:10]
    assert list(first) + list(rest) == expected


def test_routed_cursor_releases_its_connection(
    cluster_and_single, client
):
    __, single = cluster_and_single
    key = single.query("SELECT a0 FROM t LIMIT 1").scalar()
    sql = f"SELECT a0 FROM t WHERE a0 = {key}"
    for __round in range(3):  # more rounds than pool max_size
        with client.cursor(sql) as cursor:
            assert cursor.fetchone() is not None
    # The pool must still serve queries (no leaked checkouts).
    assert client.query("SELECT COUNT(*) AS n FROM t").scalar() == 3_000


def test_stats_relay_and_panel(cluster_and_single):
    cluster, __ = cluster_and_single
    with cluster.client() as client:
        client.query("SELECT COUNT(*) AS n FROM t")
        key = 123456
        client.query(f"SELECT a0 FROM t WHERE a0 = {key}")
        stats = client.stats()
    assert len(stats["shards"]) == 2
    assert stats["client"]["scattered"] >= 1
    assert stats["client"]["routed"] >= 1
    totals = stats["totals"]["counters"]
    assert any("quer" in key for key in totals)
    panel = render_shard_panel(stats)
    assert "2 shards" in panel
    assert "shard 0" in panel and "shard 1" in panel


def test_distinct_aggregate_fails_fast_client_side(client):
    with pytest.raises(ShardingError, match="DISTINCT"):
        client.query("SELECT COUNT(DISTINCT a1) FROM t")


def test_wrong_token_is_rejected(cluster_and_single):
    cluster, __ = cluster_and_single
    host, port = cluster.addresses[0]
    with pytest.raises(ReproError):
        with repro.connect(f"raw://{host}:{port}/?token=wrong") as conn:
            conn.query("SELECT 1")


def test_single_shard_cluster_serves_file_directly(tmp_path):
    path = tmp_path / "one.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=3, n_rows=200, seed=5)
    )
    single = PostgresRaw()
    single.register_csv("t", path, schema)
    cluster = ShardCluster(shards=1)
    cluster.add_table("t", path, key="a0", schema=schema)
    # shards=1 serves the original file, no partition copies.
    assert cluster.shard_paths["t"] == [path]
    with cluster:
        with cluster.client() as client:
            sql = "SELECT a0, a1, a2 FROM t ORDER BY a0, a1, a2"
            assert client.query(sql).rows == single.query(sql).rows
            explained = client.explain(sql).splitlines()[0]
            assert explained.startswith("Route [shard 0] single shard")
    assert path.exists()  # stop() must never touch user files


def test_add_table_after_start_is_rejected(cluster_and_single):
    cluster, __ = cluster_and_single
    with pytest.raises(ShardingError, match="before start"):
        cluster.add_table("u", "nowhere.csv", key="x")


def _can_bind(host: str) -> bool:
    try:
        with socket.socket() as probe:
            probe.bind((host, 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(
    not _can_bind("127.0.0.2"), reason="127.0.0.2 is not a local address"
)
def test_workers_bind_the_cluster_host(tmp_path):
    # The DSN advertises the cluster's host, so every worker must bind
    # it too, or the advertised address refuses the connection.
    path = tmp_path / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=3, n_rows=100, seed=9)
    )
    single = PostgresRaw()
    single.register_csv("t", path, schema)
    sql = "SELECT COUNT(*) AS n FROM t"
    cluster = ShardCluster(2, host="127.0.0.2")
    cluster.add_table("t", path, key="a0", schema=schema)
    with cluster:
        assert all(host == "127.0.0.2" for host, __ in cluster.addresses)
        with repro.connect(cluster.dsn()) as client:
            assert client.query(sql).rows == single.query(sql).rows
