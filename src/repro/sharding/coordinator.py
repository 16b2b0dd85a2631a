"""The cluster coordinator: partition raw files, spawn shard workers.

:class:`ShardCluster` is the serving-tier counterpart of embedding one
:class:`~repro.server.RawServer`: it splits each registered raw file
into per-shard files (:mod:`repro.sharding.partition`), forks one
worker process per shard — each a full engine + wire server over its
slice, with the global memory budget divided evenly — and hands out
the cluster's canonical DSN for :func:`repro.connect`.

``shards=1`` degenerates cleanly: the original file is served directly
(no copy, byte-identical to a single-node server) by one child
process.

    cluster = ShardCluster(shards=4)
    cluster.add_table("t", "t.csv", key="id")
    cluster.start()
    with repro.connect(cluster.dsn()) as client:
        client.query("SELECT COUNT(*) AS n FROM t")
    cluster.stop()
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from ..catalog.schema import PartitionSpec, TableSchema
from ..config import PostgresRawConfig
from ..errors import ShardingError
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT
from ..rawio.sniffer import infer_schema, infer_schema_jsonl, sniff_format
from .partition import derive_range_bounds, partition_file
from .worker import WorkerTable, run_worker

_START_TIMEOUT_S = 60.0


def _mp_context():
    """Fork where available (cheap, no re-import), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ShardCluster:
    """Partition files, run one wire server per shard, relay STATS.

    Each worker binds ``host`` on an ephemeral port; shard files go to
    ``data_dir`` (``None``: a temporary directory removed on stop).
    """

    def __init__(
        self,
        shards: int,
        config: PostgresRawConfig | None = None,
        *,
        host: str = "127.0.0.1",
        auth_token: str | None = None,
        data_dir: str | Path | None = None,
    ) -> None:
        if shards < 1:
            raise ShardingError("a cluster needs at least one shard")
        self.config = config or PostgresRawConfig()
        self.shards = shards
        self.host = host
        self.auth_token = auth_token
        self._own_data_dir = data_dir is None
        self.data_dir = Path(
            data_dir
            if data_dir is not None
            else tempfile.mkdtemp(prefix="repro-shards-")
        )
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: table name → coordinator-side spec (no shard index).
        self.partition_map: dict[str, PartitionSpec] = {}
        #: table name → per-shard raw file paths.
        self.shard_paths: dict[str, list[Path]] = {}
        self.schemas: dict[str, TableSchema] = {}
        self._tables: list[list[WorkerTable]] = [
            [] for __ in range(self.shards)
        ]
        self._processes: list = []
        self._pipes: list = []
        self.addresses: list[tuple[str, int]] = []
        self.started = False

    # ------------------------------------------------------------------
    # Registration (before start).
    # ------------------------------------------------------------------

    def add_table(
        self,
        name: str,
        path: str | Path,
        key: str,
        *,
        schema: TableSchema | None = None,
        format: str | None = None,
        scheme: str = "hash",
        bounds: tuple | None = None,
        dialect: CsvDialect = DEFAULT_DIALECT,
    ) -> PartitionSpec:
        """Partition one raw file across the cluster's shards.

        ``scheme`` is ``"hash"`` (CRC32 of the key's text) or
        ``"range"``, whose bounds are derived from the data (equi-count
        quantiles) when not given.  Returns the cluster-wide
        :class:`PartitionSpec`.
        """
        if self.started:
            raise ShardingError(
                "add tables before start() — online repartitioning "
                "is not supported"
            )
        path = Path(path)
        fmt = format or sniff_format(path)
        if schema is None:
            schema = (
                infer_schema_jsonl(path)
                if fmt == "jsonl"
                else infer_schema(path, dialect)
            )
        if scheme == "range" and bounds is None and self.shards > 1:
            bounds = derive_range_bounds(
                path, schema, key, self.shards, fmt=fmt, dialect=dialect
            )
        spec = PartitionSpec(key, scheme, self.shards, bounds or ())
        if self.shards == 1:
            paths = [path]
        else:
            paths = partition_file(
                path,
                schema,
                spec,
                self.data_dir,
                fmt=fmt,
                dialect=dialect,
                stem=name,
            )
        self.partition_map[name] = spec
        self.shard_paths[name] = [Path(p) for p in paths]
        self.schemas[name] = schema
        for i in range(self.shards):
            self._tables[i].append(
                WorkerTable(
                    name,
                    str(paths[i]),
                    schema,
                    fmt,
                    replace(spec, index=i),
                    dialect,
                )
            )
        return spec

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "ShardCluster":
        """Spawn the workers; returns once every shard's port is bound."""
        if self.started:
            raise ShardingError("cluster already started")
        worker_config = replace(
            self.config,
            memory_budget=max(1, self.config.memory_budget // self.shards),
        )
        ctx = _mp_context()
        try:
            for i in range(self.shards):
                parent, child = ctx.Pipe()
                process = ctx.Process(
                    target=run_worker,
                    args=(
                        i,
                        worker_config,
                        self.host,
                        self._tables[i],
                        child,
                        self.auth_token,
                    ),
                    name=f"repro-shard-{i}",
                    daemon=True,
                )
                process.start()
                child.close()
                self._processes.append(process)
                self._pipes.append(parent)
            for i, pipe in enumerate(self._pipes):
                if not pipe.poll(_START_TIMEOUT_S):
                    raise ShardingError(
                        f"shard {i} did not report a port within "
                        f"{_START_TIMEOUT_S:.0f}s"
                    )
                message = pipe.recv()
                if not message.get("ok"):
                    raise ShardingError(
                        f"shard {i} failed to start: "
                        f"{message.get('error', 'unknown error')}"
                    )
                self.addresses.append((self.host, message["port"]))
        except BaseException:
            self.stop()
            raise
        self.started = True
        return self

    def stop(self) -> None:
        """Stop every worker (idempotent) and clean owned scratch."""
        for pipe in self._pipes:
            try:
                pipe.send("stop")
            except (OSError, BrokenPipeError):
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass
        self._processes = []
        self._pipes = []
        self.addresses = []
        self.started = False
        if self._own_data_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def __enter__(self) -> "ShardCluster":
        if not self.started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client surface.
    # ------------------------------------------------------------------

    def dsn(self) -> str:
        """The cluster's canonical DSN for :func:`repro.connect`."""
        if not self.started:
            raise ShardingError("cluster is not running")
        from ..dsn import format_dsn

        options = {}
        if self.auth_token is not None:
            options["token"] = self.auth_token
        return format_dsn(self.addresses, self.partition_map, **options)

    def client(self, **kwargs):
        """A :class:`ShardedConnectionPool` over this cluster."""
        if not self.started:
            raise ShardingError("cluster is not running")
        from .client import ShardedConnectionPool

        kwargs.setdefault("token", self.auth_token)
        return ShardedConnectionPool(
            self.addresses, self.partition_map, **kwargs
        )

    def stats(self) -> dict:
        """Relay each shard's STATS snapshot (coordinator view)."""
        with self.client() as client:
            return client.stats()
