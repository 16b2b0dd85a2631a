"""The PostgresRaw engine facade.

"PostgresRaw immediately starts processing queries without any data
preparation or loading steps.  As more queries are processed, response
times improve due to the adaptive properties of PostgresRaw."

Usage::

    engine = PostgresRaw()
    engine.register_csv("lineitem", "lineitem.csv", schema)   # no I/O
    result = engine.query("SELECT a3, a7 FROM lineitem WHERE a1 < 100")
    print(result.format_table())
    print(result.metrics.component_seconds())   # Figure 3 buckets

Registration costs nothing ("zero initialization overhead"); all
auxiliary state — positional map, cache, statistics — accretes as a side
effect of the queries themselves and is visible through
:meth:`table_state` for the monitoring panels.

Since the concurrent serving layer landed, :class:`PostgresRaw` is a
thin wrapper over :class:`repro.service.PostgresRawService` holding one
default session: the classic single-threaded API is unchanged, while
``engine.service`` exposes the full concurrent surface (per-client
sessions, admission control, the global memory governor, per-table
reader-writer locks).  Many threads may call :meth:`query` on one
engine directly — every call is admission-controlled and lock-protected
by the service underneath.

Every scan is serial; multi-core scale-out is the sharded tier
(:mod:`repro.sharding`), one engine per shard process.  Call
:meth:`close` (or use the engine as a context manager) to shut the
service down.
"""

from __future__ import annotations

from pathlib import Path

from ..catalog.catalog import Catalog, RawTableEntry
from ..catalog.schema import TableSchema
from ..config import PostgresRawConfig
from ..executor.result import Cursor, QueryResult
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT
from ..sql.ast import SelectStatement
from .table_state import RawTableState
from .updates import FileChange


class PostgresRaw:
    """An in-situ SQL engine over raw CSV files.

    A thin single-session wrapper over the thread-safe
    :class:`repro.service.PostgresRawService`.
    """

    def __init__(self, config: PostgresRawConfig | None = None) -> None:
        # Imported here: the service builds on the core scan machinery,
        # so a module-level import would be circular.
        from ..service.service import PostgresRawService

        self.service = PostgresRawService(config)
        self._session = self.service.session()

    @property
    def config(self) -> PostgresRawConfig:
        return self.service.config

    @property
    def catalog(self) -> Catalog:
        return self.service.catalog

    @property
    def telemetry(self):
        """The engine-wide :class:`repro.telemetry.Telemetry` hub."""
        return self.service.telemetry

    @property
    def _states(self) -> dict[str, RawTableState]:
        return self.service._states

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the service down: open cursors end, adaptive state is
        dropped (idempotent)."""
        self.service.close()

    def __enter__(self) -> "PostgresRaw":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def register_csv(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | None = None,
        dialect: CsvDialect = DEFAULT_DIALECT,
    ) -> RawTableEntry:
        """Register a raw file as a queryable table.

        No data is read (beyond a small sample if ``schema`` is omitted
        and must be inferred); queries can start immediately.
        """
        return self.service.register_csv(name, path, schema, dialect)

    def register_jsonl(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | None = None,
    ) -> RawTableEntry:
        """Register a raw JSON-lines file as a queryable table."""
        return self.service.register_jsonl(name, path, schema)

    def register_table(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | None = None,
        dialect: CsvDialect | None = None,
        format: str | None = None,
    ) -> RawTableEntry:
        """Register a raw file, sniffing its format when not declared."""
        return self.service.register_table(
            name, path, schema, dialect, format
        )

    def drop_table(self, name: str) -> None:
        """Unregister a table; its adaptive-state bytes return to the
        engine's ``memory_budget``.  Raises
        :class:`repro.errors.CatalogError` when the table is unknown."""
        self.service.drop_table(name)

    def table_state(self, name: str) -> RawTableState:
        """Adaptive state of a table (positional map, cache, statistics) —
        what the demo's monitoring panels visualize."""
        return self.service.table_state(name)

    def table_names(self) -> list[str]:
        return self.service.table_names()

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def query(self, sql: str) -> QueryResult:
        """Parse, plan and execute one SELECT statement.

        Materialized convenience form — internally this is
        :meth:`query_stream` drained by ``fetchall()``.
        """
        return self._session.query(sql)

    def execute(self, stmt: SelectStatement) -> QueryResult:
        return self._session.execute(stmt)

    def query_stream(self, sql: str) -> Cursor:
        """Parse, plan and *stream* one SELECT statement.

        Returns a lazy :class:`repro.executor.Cursor`: batches flow
        from the scan as they are produced (``metrics.time_to_first_batch``
        is stamped when the first one arrives) instead of materializing
        the result.  Exhaust or ``close()`` the cursor promptly — it
        holds the table's shared lock while open (``cursor_ttl_s``
        bounds a stalled consumer).
        """
        return self._session.cursor(sql)

    def execute_stream(self, stmt: SelectStatement) -> Cursor:
        return self._session.execute_stream(stmt)

    def build_mv(self, sql: str) -> dict[str, object]:
        """Materialize the aggregate result of ``sql`` right now."""
        return self.service.build_mv(sql)

    def explain(self, sql: str) -> str:
        """The physical plan as indented text (EXPLAIN)."""
        return self.service.explain(sql)

    def refresh(self, name: str | None = None) -> dict[str, FileChange]:
        """Force update detection now (instead of before the next query).

        Returns the change detected per table.
        """
        return self.service.refresh(name)
