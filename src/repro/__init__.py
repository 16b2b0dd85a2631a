"""repro — a reproduction of PostgresRaw, the NoDB prototype.

"NoDB in Action: Adaptive Query Processing on Raw Data", Alagiannis,
Borovica, Branco, Idreos, Ailamaki — VLDB 2012 (demo of the SIGMOD 2012
NoDB paper).

The library provides:

* :class:`PostgresRaw` — an in-situ SQL engine over raw CSV files with
  an adaptive positional map, a binary data cache, on-the-fly statistics
  and selective tokenizing / parsing / tuple formation;
* :class:`PostgresRawService` / :class:`Session` — the concurrent
  serving layer: many client threads share one set of adaptive
  structures under per-table reader-writer locks, with admission
  control (``max_concurrent_queries``) and one engine-wide
  ``memory_budget`` arbitrated across all tables' adaptive structures
  by the benefit-per-byte :class:`MemoryGovernor`;
* :class:`RawServer` / :mod:`repro.client` — the wire protocol:
  an asyncio socket server fronting a service (one session per
  connection, streaming cursors pumped into socket writes with
  end-to-end backpressure) and the matching blocking client whose
  ``connect(...).cursor(sql)`` returns the same lazy cursor API;
* :mod:`repro.sharding` — the scale-out tier and the one multi-core
  path (each scan is serial): a coordinator partitions raw files by
  key across N worker processes (one engine + wire server each), and
  :func:`connect` with a multi-host DSN returns a shard-aware client
  that routes partition-key lookups and
  scatter/merges everything else (aggregates re-merge through the same
  partial-aggregation algebra the materialized-view cache uses);
* :class:`ConventionalDBMS` / :class:`ExternalFilesDBMS` — load-first and
  external-files baselines sharing the same planner and executor;
* workload generators, a "friendly race" harness and ASCII monitoring
  panels reproducing the demo's figures and scenarios.

Quickstart::

    from repro import PostgresRaw, generate_csv, uniform_table_spec

    spec = uniform_table_spec(n_attrs=10, n_rows=50_000)
    schema = generate_csv("data.csv", spec)
    engine = PostgresRaw()
    engine.register_csv("t", "data.csv", schema)
    print(engine.query("SELECT a0, a1 FROM t WHERE a2 < 1000").format_table())
"""

from .batch import Batch, ColumnVector
from .catalog import Catalog, Column, PartitionSpec, TableSchema
from .config import PostgresRawConfig
from .core import (
    FileChange,
    PostgresRaw,
    QueryMetrics,
    RawDataCache,
    PositionalMap,
    StatisticsStore,
)
from .datatypes import DataType
from .errors import (
    AdmissionError,
    CatalogError,
    ConversionError,
    CursorClosedError,
    CursorError,
    CursorInvalidError,
    CursorTimeoutError,
    ExecutionError,
    PlanningError,
    RawDataError,
    ReproError,
    SchemaError,
    ServiceError,
    ShardingError,
    SQLSyntaxError,
    StorageError,
)
from .errors import ProtocolError

# PEP 249 module interface: the exception hierarchy under its DB-API
# names, plus the three module globals.  ``paramstyle`` is nominal —
# the SELECT-only dialect has no parameter binding yet.
from .errors import (  # noqa: F401 (re-exported per PEP 249)
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,  # noqa: A004 - PEP 249 mandates the name
)

apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections
paramstyle = "qmark"
from .executor import Cursor, QueryResult
from .service import (
    MemoryGovernor,
    PostgresRawService,
    QueryScheduler,
    RWLock,
    Session,
)
from .server import RawServer

# After the engine packages: dsn imports the wire protocol, whose codec
# needs them loaded.
from .dsn import connect, format_dsn, parse_dsn
from .telemetry import MetricsRegistry, Telemetry, Tracer
from .rawio import (
    ColumnSpec,
    CsvDialect,
    DatasetSpec,
    append_csv_rows,
    append_jsonl_rows,
    generate_csv,
    sniff_format,
    uniform_table_spec,
    write_csv,
    write_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    "Batch",
    "ColumnVector",
    "Catalog",
    "Column",
    "PartitionSpec",
    "TableSchema",
    "PostgresRawConfig",
    "connect",
    "format_dsn",
    "parse_dsn",
    "apilevel",
    "threadsafety",
    "paramstyle",
    "Error",
    "Warning",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "FileChange",
    "PostgresRaw",
    "QueryMetrics",
    "RawDataCache",
    "PositionalMap",
    "StatisticsStore",
    "DataType",
    "AdmissionError",
    "CatalogError",
    "ConversionError",
    "CursorClosedError",
    "CursorError",
    "CursorInvalidError",
    "CursorTimeoutError",
    "ExecutionError",
    "PlanningError",
    "ProtocolError",
    "RawDataError",
    "RawServer",
    "ReproError",
    "SchemaError",
    "ServiceError",
    "ShardingError",
    "SQLSyntaxError",
    "StorageError",
    "Cursor",
    "QueryResult",
    "MemoryGovernor",
    "PostgresRawService",
    "QueryScheduler",
    "RWLock",
    "Session",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "ColumnSpec",
    "CsvDialect",
    "DatasetSpec",
    "append_csv_rows",
    "append_jsonl_rows",
    "generate_csv",
    "sniff_format",
    "uniform_table_spec",
    "write_csv",
    "write_jsonl",
    "__version__",
]
