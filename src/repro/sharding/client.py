"""The shard-aware client: one logical connection over N shard servers.

:class:`ShardedConnectionPool` fronts a cluster the way
:class:`repro.client.ConnectionPool` fronts one server.  Each query is
planned by :class:`~repro.sharding.scatter.ScatterPlanner`: partition-
key point lookups go to the owning shard only (and stream back
untouched); aggregates fan out as partial aggregates and re-merge
through the engine's own operators; everything else fans out and
concat-merges with the original statement's ORDER BY / DISTINCT /
LIMIT replayed over the union.

Obtain one from :func:`repro.connect` with a multi-host DSN, or from
:meth:`repro.sharding.ShardCluster.client`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Sequence

from ..batch import Batch, ColumnVector
from ..catalog.schema import PartitionSpec
from ..client import ConnectionPool
from ..errors import ServiceError
from ..executor.result import Cursor, QueryResult
from ..server.protocol import DEFAULT_FRAME_BYTES
from .scatter import (
    MergedResult,
    ScatterPlanner,
    ShardResult,
    gather,
)


class ShardedConnectionPool:
    """Scatter/route queries across shard servers and merge answers."""

    def __init__(
        self,
        hosts: Sequence[tuple[str, int]],
        partitions: dict[str, PartitionSpec],
        *,
        token: str | None = None,
        timeout: float | None = None,
        frame_bytes: int = DEFAULT_FRAME_BYTES,
        min_size: int = 1,
        max_size: int = 4,
    ) -> None:
        if not hosts:
            raise ServiceError("sharded pool needs at least one host")
        self.hosts = [tuple(h) for h in hosts]
        self.n_shards = len(self.hosts)
        self.planner = ScatterPlanner(partitions, self.n_shards)
        self.pools = [
            ConnectionPool(
                host,
                port,
                min_size=min_size,
                max_size=max_size,
                token=token,
                timeout=timeout,
                frame_bytes=frame_bytes,
            )
            for host, port in self.hosts
        ]
        self._fanout = ThreadPoolExecutor(
            max_workers=max(2, self.n_shards),
            thread_name_prefix="repro-scatter",
        )
        self.closed = False
        self.queries_routed = 0
        self.queries_scattered = 0

    # ------------------------------------------------------------------
    # Query surface (mirrors Connection / ConnectionPool).
    # ------------------------------------------------------------------

    def query(self, sql: str) -> QueryResult:
        """Execute and materialize across the cluster."""
        plan = self.planner.plan(sql)
        self._count(plan)
        merged = gather(
            plan, self.n_shards, self._run_shard, self._fanout
        )
        return QueryResult(
            merged.columns, merged.types, list(merged.rows())
        )

    def cursor(self, sql: str) -> Cursor:
        """A streaming cursor over the merged answer.

        Routed queries stream straight off the owning shard's socket
        (one connection checked out until the cursor closes); scattered
        shapes gather first — their merge (re-aggregate / sort /
        distinct) is blocking by nature — and stream the merged rows.
        """
        plan = self.planner.plan(sql)
        self._count(plan)
        if plan.is_routed:
            return self._routed_cursor(plan.target, plan.shard_sql)
        merged = gather(
            plan, self.n_shards, self._run_shard, self._fanout
        )
        return _merged_cursor(merged)

    def explain(self, sql: str) -> str:
        """The scatter decision for ``sql`` (no shard round-trips)."""
        return "\n".join(self.planner.plan(sql).explain_lines())

    def stats(self) -> dict:
        """Relayed STATS: per-shard snapshots plus summed counters."""
        def one(pool: ConnectionPool) -> dict:
            with pool.acquire() as conn:
                return conn.stats()

        futures = [self._fanout.submit(one, p) for p in self.pools]
        shards = [f.result() for f in futures]
        totals: dict[str, float] = {}
        for payload in shards:
            counters = payload.get("stats", {}).get("counters", {})
            for key, value in counters.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return {
            "shards": [s.get("stats", {}) for s in shards],
            "totals": {"counters": totals},
            "client": {
                "routed": self.queries_routed,
                "scattered": self.queries_scattered,
            },
        }

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _count(self, plan) -> None:
        if plan.is_routed:
            self.queries_routed += 1
        else:
            self.queries_scattered += 1

    def _run_shard(self, index: int, sql: str) -> ShardResult:
        result = self.pools[index].query(sql)
        return ShardResult(
            result.column_names, result.column_types, result.rows
        )

    def _routed_cursor(self, shard: int, sql: str) -> Cursor:
        pool = self.pools[shard]
        conn = pool.checkout()
        try:
            cursor = conn.cursor(sql)
        except BaseException:
            pool.release(conn)
            raise
        inner = cursor._on_close

        def release(cur: Cursor) -> None:
            if inner is not None:
                inner(cur)
            pool.release(conn)

        cursor._on_close = release
        return cursor

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._fanout.shutdown(wait=False)
        for pool in self.pools:
            pool.close()

    def __enter__(self) -> "ShardedConnectionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"ShardedConnectionPool({self.n_shards} shards, {state}, "
            f"{self.queries_routed} routed / "
            f"{self.queries_scattered} scattered)"
        )


def _merged_cursor(merged: MergedResult) -> Cursor:
    """Wrap a merged row stream as a standard :class:`Cursor`."""
    types = dict(zip(merged.columns, merged.types))

    def batches() -> Iterator[Batch]:
        chunk: list[tuple] = []
        for row in merged.rows():
            chunk.append(row)
            if len(chunk) >= 4096:
                yield _rows_to_batch(chunk, merged.columns, types)
                chunk = []
        if chunk:
            yield _rows_to_batch(chunk, merged.columns, types)

    return Cursor(merged.columns, merged.types, batches())


def _rows_to_batch(
    rows: list[tuple], columns: list[str], types: dict
) -> Batch:
    by_pos = list(zip(*rows))
    return Batch(
        {
            name: ColumnVector.from_pylist(types[name], list(by_pos[i]))
            for i, name in enumerate(columns)
        },
        num_rows=len(rows),
    )
