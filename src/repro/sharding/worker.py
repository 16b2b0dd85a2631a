"""The shard worker: one engine + wire server per child process.

:func:`run_worker` is the process entry point — module-level so it
pickles under both fork and spawn start methods.  The child builds its
own :class:`~repro.service.PostgresRawService` (its slice of the
global memory budget arrives pre-divided in ``config``), registers its
shard files, binds a :class:`~repro.server.RawServer` on the
coordinator's host at an ephemeral port, reports the port back through
the pipe, then parks until the coordinator sends the stop token (or
dies, which closes the pipe).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.schema import PartitionSpec, TableSchema
from ..config import PostgresRawConfig
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT


@dataclass(frozen=True)
class WorkerTable:
    """One table registration shipped to a worker (picklable)."""

    name: str
    path: str
    schema: TableSchema
    fmt: str  # "csv" | "jsonl"
    partition: PartitionSpec
    dialect: CsvDialect = DEFAULT_DIALECT


def run_worker(
    index: int,
    config: PostgresRawConfig,
    host: str,
    tables: list[WorkerTable],
    pipe,
    auth_token: str | None = None,
) -> None:
    """Child-process main: serve one shard until told to stop."""
    # Imported here, not at module top: under spawn the child imports
    # this module before unpickling its arguments, and the service
    # stack is only needed once we are actually the child.
    from ..server import RawServer
    from ..service import PostgresRawService

    server = None
    service = None
    try:
        service = PostgresRawService(config)
        for table in tables:
            service.register_table(
                table.name,
                table.path,
                table.schema,
                dialect=table.dialect,
                format=table.fmt,
                partition=table.partition,
            )
        server = RawServer(
            service, host=host, port=0, auth_token=auth_token
        ).start()
        pipe.send({"ok": True, "shard": index, "port": server.port})
    except Exception as exc:  # startup failed: tell the coordinator
        try:
            pipe.send({"ok": False, "shard": index, "error": repr(exc)})
        finally:
            if server is not None:
                server.stop()
            if service is not None:
                service.close()
        return
    try:
        # Any message — or the coordinator's death (EOFError) — stops.
        pipe.recv()
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            server.stop()
        finally:
            service.close()
