"""The concurrent query service: sessions over one shared adaptive state.

The paper's positional maps, caches and statistics accrete as a side
effect of queries and are most valuable when *shared across the whole
query stream* — every client's query makes every other client's next
query cheaper.  :class:`PostgresRawService` is the serving layer that
makes that sharing safe under concurrency:

* **Sessions** (:class:`Session`) — lightweight per-client handles; any
  number of threads may hold sessions against one service.
* **Per-table reader-writer locking** — queries served entirely by
  already-built structures (cache hits, positional-map jumps) run in
  parallel under shared locks; scans that must tokenize raw data, and
  all structure installation, take the exclusive path.  What a read-path
  query *learns* (converted columns, combination chunks) is harvested
  into an :class:`repro.core.install.InstallPlan` and installed under
  the write lock after the rows are out — readers never mutate shared
  containers.
* **Admission control** (:class:`repro.service.scheduler.QueryScheduler`)
  — at most ``max_concurrent_queries`` queries run at once; a bounded
  queue smooths bursts (granted round-robin across sessions, so one
  greedy session cannot monopolize the slots) and overload is rejected
  fast.
* **One plan generator, two lanes** — every plan runs as one
  generator over its batches (:meth:`PostgresRawService._batches`):
  it holds the table locks across its yields and, when it ends,
  releases them, installs what the scans and MV folds deferred, and
  frees the admission slot.  Whoever consumes it pulls it.  The
  classic ``query()``/``execute()`` APIs drain their statement in the
  same call, so they pull it on the caller's thread (the *inline*
  lane: no producer thread, no channel).  :meth:`Session.cursor` over
  a plan that scans a raw file gets a producer thread that loops the
  generator into a bounded
  :class:`repro.service.streaming.BatchChannel`, and the client reads
  the consuming end as a lazy :class:`repro.executor.result.Cursor`;
  the plan holds its table locks until the cursor is exhausted or
  closed (``cursor_ttl_s`` abandons stalled consumers cleanly).  A
  cursor over a plan that scans nothing — a level MV hit, a FROM-less
  SELECT — is inline too: it is handed out already produced and
  holding no lock.  On every lane a ``drop_table``/rewrite that races
  an opening statement is generation-guarded into
  :class:`repro.errors.CursorInvalidError`.
* **Plan cache** (:mod:`repro.service.plan_cache`) — scan-free plans
  are cached by SQL text for every session; a repeat skips lexer,
  parser and planner and costs one MV serve decision.
* **One memory governor** — every table's map chunks, cache entries,
  materialized aggregates and promoted columns are admitted under one
  ``memory_budget`` and compete for it on benefit-per-byte
  (:class:`repro.service.governor.MemoryGovernor`).

The classic single-threaded :class:`repro.core.engine.PostgresRaw`
facade is now a thin wrapper holding one default session, so every
existing call site keeps working unchanged.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from ..catalog.catalog import Catalog, RawTableEntry
from ..catalog.schema import PartitionSpec, TableSchema
from ..config import PostgresRawConfig
from ..core.metrics import BreakdownComponent, QueryMetrics
from ..core.install import InstallPlan, install
from ..core.raw_scan import RawScan
from ..core.table_state import RawTableState
from ..core.stats import StatisticsStore
from ..core.updates import FileChange, detect_change, fingerprint_file
from ..errors import (
    CatalogError,
    CursorInvalidError,
    RawDataError,
    ServiceError,
)
from ..batch import Batch
from ..executor.result import Cursor, QueryResult, replay
from ..kernels import KernelCache
from ..mv import MVRuntime
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT
from ..rawio.sniffer import infer_schema
from ..sql.ast import Expression, SelectStatement
from ..sql.parser import parse_select
from ..sql.planner import UNSERVED, LogicalPlan, Planner
from ..telemetry import Telemetry
from ..telemetry.trace import Span
from .governor import MemoryGovernor
from .locks import RWLock
from .plan_cache import CachedPlan, PlanCache
from .scheduler import QueryScheduler
from .streaming import BatchChannel


def _drain(cursor: Cursor) -> QueryResult:
    """Pull a drained statement's cursor into a :class:`QueryResult`
    on this thread.  An error while its rows are built closes the
    plan, so its locks and slot are released."""
    try:
        return cursor.fetchall()
    except BaseException:
        cursor.close()
        raise


def _produced(batches: Iterator[Batch]) -> Iterator[Batch]:
    """Run a plan to its end now; the returned source replays its
    batches, then the error that stopped it (the inline lane)."""
    done: list[Batch] = []
    try:
        for batch in batches:
            done.append(batch)
    except BaseException as exc:
        return replay(done, exc)
    return replay(done)


class Session:
    """A per-client handle on the shared service.

    Sessions are cheap (no adaptive state of their own — that is the
    point: all sessions share one set of maps/caches/statistics) and are
    intended to be used by one client thread each; the service itself is
    what many threads hammer concurrently.
    """

    def __init__(self, service: "PostgresRawService", session_id: int) -> None:
        self.service = service
        self.session_id = session_id
        self.queries_issued = 0
        self.rows_returned = 0
        self.total_seconds = 0.0

    def query(self, sql: str) -> QueryResult:
        """Parse (or reuse a cached plan), plan and execute one SELECT
        statement.

        The plan runs on this thread: its batches are pulled straight
        into rows, with no producer thread and no channel, and every
        lock is released by the time the result is returned.
        """
        cursor = self.service._open_text(
            sql, self.session_id, self._account, drained=True
        )
        self.queries_issued += 1
        return _drain(cursor)

    def execute(
        self, stmt: SelectStatement, sql: str | None = None
    ) -> QueryResult:
        cursor = self.service._open(
            stmt, self.session_id, self._account, sql, drained=True
        )
        self.queries_issued += 1
        return _drain(cursor)

    def cursor(self, sql: str) -> Cursor:
        """Parse (or reuse a cached plan), plan and *stream* one SELECT
        statement.

        A plan that scans a raw file runs on a producer thread, and its
        batches flow through a bounded handoff queue as they are
        computed; iterate / ``fetchmany`` / close the returned
        :class:`Cursor`.  The table's shared lock is held until the
        cursor is exhausted or closed (``cursor_ttl_s`` bounds how long
        an idle consumer can pin it).  A plan that scans nothing has
        run, and released every lock, by the time the cursor is
        returned.
        """
        cursor = self.service.query_stream(
            sql, session_id=self.session_id, on_close=self._account
        )
        self.queries_issued += 1
        return cursor

    def execute_stream(
        self, stmt: SelectStatement, sql: str | None = None
    ) -> Cursor:
        cursor = self.service.execute_stream(
            stmt, session_id=self.session_id, on_close=self._account, sql=sql
        )
        self.queries_issued += 1
        return cursor

    def _account(self, cursor: Cursor) -> None:
        self.rows_returned += cursor.rows_fetched
        self.total_seconds += cursor.metrics.total_seconds

    def explain(self, sql: str) -> str:
        return self.service.explain(sql)

    def build_mv(self, sql: str) -> dict[str, object]:
        """Materialize the aggregate result of ``sql`` right now."""
        return self.service.build_mv(sql, session_id=self.session_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(id={self.session_id}, "
            f"queries={self.queries_issued}, rows={self.rows_returned})"
        )


@dataclass
class _StreamHandle:
    """One open streaming query, tracked for monitoring and shutdown."""

    stream_id: int
    #: Root span of the query's trace.
    root: Span
    #: The producer thread and its channel (``None`` on the inline
    #: lane: the plan runs on the thread that opened the cursor).
    channel: BatchChannel | None = field(default=None)
    thread: threading.Thread | None = field(default=None)
    #: Original SQL text when known (slow-query log context).
    sql: str | None = field(default=None)
    #: MV signature + serve verdict of the plan (workload mining: the
    #: observed cost is recorded against these at retire time).
    mv_signature: object | None = field(default=None)
    mv_decision: str | None = field(default=None)


class PostgresRawService:
    """A thread-safe in-situ SQL engine serving many sessions."""

    def __init__(self, config: PostgresRawConfig | None = None) -> None:
        self.config = config or PostgresRawConfig()
        self.catalog = Catalog()
        self._states: dict[str, RawTableState] = {}
        self._table_locks: dict[str, RWLock] = {}
        self._registry_lock = threading.Lock()
        self.governor = MemoryGovernor(self.config.memory_budget)
        self.scheduler = QueryScheduler(
            self.config.max_concurrent_queries,
            self.config.admission_queue_depth,
        )
        #: The engine's observability substrate (:mod:`repro.telemetry`):
        #: span tracer, metrics registry and slow-query log.  The
        #: snapshot-time collectors registered here are what the
        #: monitoring panels render from.
        self.telemetry = Telemetry.from_config(self.config)
        registry = self.telemetry.registry
        #: Engine-owned cache of specialized scan kernels
        #: (:mod:`repro.kernels`), shared by every scan this service
        #: plans; its ``stats()`` is the ``kernels`` collector.
        self.kernel_cache = KernelCache()
        #: Adaptive materialized-aggregate cache (:mod:`repro.mv`):
        #: workload-mined aggregate results governed alongside the
        #: positional maps and caches.
        self.mv = MVRuntime(
            self.config,
            registry,
            governor=self.governor,
            stats_provider=self._stats_provider,
            rows_provider=self._table_rows,
        )
        registry.register_collector("mv", self._collect_mv)
        registry.register_collector("vertical", self._collect_columnstores)
        registry.register_collector("scheduler", self.scheduler.stats)
        registry.register_collector("cursors", self.cursor_stats)
        registry.register_collector("locks", self.lock_stats)
        registry.register_collector("governor", self.governor.stats)
        registry.register_collector("residency", self.governor.residency)
        registry.register_collector("traces", self.telemetry.tracer.stats)
        registry.register_collector("kernels", self.kernel_cache.stats)
        #: Where promoted columns are written (``vp_enabled``); a
        #: temporary directory is the service's own, removed on close.
        self._vp_dir: Path | None = None
        self._vp_dir_owned = self.config.vp_enabled and not self.config.vp_dir
        if self.config.vp_enabled:
            self._vp_dir = Path(
                self.config.vp_dir or tempfile.mkdtemp(prefix="repro-vp-")
            )
            self._vp_dir.mkdir(parents=True, exist_ok=True)
        self._session_ids = itertools.count(1)
        self._closed = False
        # Streaming-cursor bookkeeping (monitoring + orderly shutdown).
        self._cursor_lock = threading.Lock()
        self._cursor_ids = itertools.count(1)
        self._open_streams: dict[int, _StreamHandle] = {}
        self.cursors_opened = 0
        self.cursors_finished = 0
        self.cursors_abandoned = 0
        self._last_ttfb: float | None = None
        #: Scan-free plans by SQL text, shared by every session.
        self.plan_cache = PlanCache(registry)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the service; further queries error.

        Open threaded cursors are force-closed: their producers unblock,
        release their locks and finish; a consumer still reading such a
        cursor gets a :class:`repro.errors.CursorInvalidError`.  Inline
        cursors hold no lock and no slot — their rows are complete and
        stay readable.
        """
        self._closed = True
        with self._cursor_lock:
            handles = [
                h for h in self._open_streams.values() if h.channel is not None
            ]
        for handle in handles:
            # Error first, then close: a consumer mid-drain gets a clean
            # CursorInvalidError instead of a silently truncated result
            # (the producer's own finish() never overwrites the error).
            handle.channel.finish(
                CursorInvalidError("service closed while cursor open")
            )
            handle.channel.close(by_consumer=False)
        for handle in handles:
            if handle.thread is not None:
                handle.thread.join(timeout=10)
        for state in list(self._states.values()):
            state.invalidate()
        if self._vp_dir_owned and self._vp_dir is not None:
            shutil.rmtree(self._vp_dir, ignore_errors=True)
            self._vp_dir = None

    def __enter__(self) -> "PostgresRawService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Sessions.
    # ------------------------------------------------------------------

    def session(self) -> Session:
        """Open a new client session."""
        if self._closed:
            raise ServiceError("cannot open a session on a closed service")
        return Session(self, next(self._session_ids))

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def register_csv(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | None = None,
        dialect: CsvDialect = DEFAULT_DIALECT,
        partition: PartitionSpec | None = None,
    ) -> RawTableEntry:
        """Register a raw CSV file as a queryable table.

        No data is read (beyond a small sample if ``schema`` is omitted
        and must be inferred); queries can start immediately.
        ``partition`` marks the file as one shard of a partitioned
        whole (:mod:`repro.sharding`) — pure metadata on this node.
        """
        if schema is None:
            schema = infer_schema(path, dialect)
        return self._register(name, path, schema, dialect, "csv", partition)

    def register_jsonl(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | None = None,
        partition: PartitionSpec | None = None,
    ) -> RawTableEntry:
        """Register a raw JSON-lines file as a queryable table."""
        from ..formats import JSONL_DIALECT, adapter_for

        adapter = adapter_for("jsonl")
        if schema is None:
            schema = adapter.infer_schema(path, JSONL_DIALECT)
        return self._register(
            name, path, schema, JSONL_DIALECT, "jsonl", partition
        )

    def register_table(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | None = None,
        dialect: CsvDialect | None = None,
        format: str | None = None,
        partition: PartitionSpec | None = None,
    ) -> RawTableEntry:
        """Register a raw file, sniffing its format when not declared."""
        from ..rawio.sniffer import sniff_format

        fmt = format or sniff_format(path)
        if fmt == "csv":
            return self.register_csv(
                name, path, schema, dialect or DEFAULT_DIALECT, partition
            )
        if fmt == "jsonl":
            if dialect is not None:
                raise ServiceError(
                    "JSONL tables do not take a CSV dialect"
                )
            return self.register_jsonl(name, path, schema, partition)
        raise ServiceError(f"unknown table format {fmt!r}")

    def _register(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema,
        dialect: CsvDialect,
        fmt: str,
        partition: PartitionSpec | None = None,
    ) -> RawTableEntry:
        with self._registry_lock:
            entry = self.catalog.register_raw(
                name, schema, path, dialect, fmt, partition
            )
            state = RawTableState(
                entry,
                self.config,
                self.governor,
                self.telemetry.registry,
                self._vp_dir,
            )
            self.governor.register(state.positional_map, name, "map", fmt)
            self.governor.register(state.cache, name, "cache", fmt)
            if state.columnstore is not None:
                self.governor.register(
                    state.columnstore, name, "columnstore", fmt
                )
            self._states[name] = state
            self._table_locks[name] = RWLock()
            self.plan_cache.clear()
        return entry

    def drop_table(self, name: str) -> None:
        """Unregister a table, releasing its adaptive-state bytes.

        Raises :class:`CatalogError` (never ``KeyError``) when the table
        is unknown, mirroring :meth:`table_state`.
        """
        with self._registry_lock:
            if name not in self._states:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            lock = self._table_locks[name]
        with lock.write():
            with self._registry_lock:
                self.catalog.drop(name)
                state = self._states.pop(name)
                self._table_locks.pop(name, None)
                self.plan_cache.clear()
            self.governor.unregister_table(name)
            self.mv.drop_table(name)
            state.invalidate()

    def table_state(self, name: str) -> RawTableState:
        """Adaptive state of a table (positional map, cache, statistics) —
        what the demo's monitoring panels visualize."""
        try:
            return self._states[name]
        except KeyError:
            raise CatalogError(f"unknown raw table {name!r}") from None

    def table_lock(self, name: str) -> RWLock:
        """The table's reader-writer lock (monitoring / tests)."""
        try:
            return self._table_locks[name]
        except KeyError:
            raise CatalogError(f"unknown raw table {name!r}") from None

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def query(self, sql: str, session_id: object = 0) -> QueryResult:
        """Parse (or reuse a cached plan), plan and execute one SELECT
        statement on the caller's thread (see :meth:`execute`)."""
        return _drain(self._open_text(sql, session_id, drained=True))

    def execute(
        self,
        stmt: SelectStatement,
        session_id: object = 0,
        sql: str | None = None,
    ) -> QueryResult:
        """Execute to a materialized :class:`QueryResult`.

        The statement runs the streaming path's plan generator, pulled
        on the caller's thread batch by batch into rows: the same
        admission, locks, generation check and installs as a cursor,
        with no producer thread and no channel, so both APIs return
        row-for-row identical results and learn the same state.
        """
        return _drain(self._open(stmt, session_id, sql=sql, drained=True))

    def query_stream(
        self,
        sql: str,
        session_id: object = 0,
        on_close: Callable[[Cursor], None] | None = None,
    ) -> Cursor:
        """Stream one SELECT statement given as text (see
        :meth:`execute_stream`)."""
        return self._open_text(sql, session_id, on_close)

    def execute_stream(
        self,
        stmt: SelectStatement,
        session_id: object = 0,
        on_close: Callable[[Cursor], None] | None = None,
        sql: str | None = None,
    ) -> Cursor:
        """Admit, plan and run one streaming query; return its cursor.

        Admission control, per-table reconcile and planning run
        synchronously in the caller (so :class:`AdmissionError`, SQL or
        catalog errors raise here).  Then one question picks the lane:
        does the plan contain a raw scan?

        * **Threaded** (it does): a producer thread pulls the plan's
          batches (:meth:`_batches`, which holds the table locks) into
          a bounded :class:`BatchChannel` (``stream_queue_batches``
          deep, ``cursor_ttl_s`` flow-control timeout).
        * **Inline** (it does not — a level MV hit or a FROM-less
          SELECT): the plan runs here, and its batches are in the
          cursor before it is returned — no thread, no channel, no lock
          held by the open cursor.  Its output is bounded by a
          resident, governed MV; it is too short to cancel or time out.

        On both lanes errors raised while producing — including
        :class:`CursorInvalidError` when a racing ``drop_table``/rewrite
        invalidated the plan, and :class:`CursorTimeoutError` on a
        stalled consumer — surface from the cursor after the batches
        that preceded them.
        """
        return self._open(stmt, session_id, on_close, sql)

    def _open_text(
        self,
        sql: str,
        session_id: object,
        on_close: Callable[[Cursor], None] | None = None,
        drained: bool = False,
    ) -> Cursor:
        """The one entry point every text API goes through.  A
        plan-cache hit skips lexer, parser and planner; a miss parses,
        and the plan is cached when it turns out scan-free."""
        cached = self.plan_cache.get(sql)
        stmt = parse_select(sql) if cached is None else cached.stmt
        return self._open(
            stmt,
            session_id,
            on_close,
            sql,
            cached=cached,
            from_text=True,
            drained=drained,
        )

    def _open(
        self,
        stmt: SelectStatement,
        session_id: object,
        on_close: Callable[[Cursor], None] | None = None,
        sql: str | None = None,
        *,
        cached: CachedPlan | None = None,
        from_text: bool = False,
        drained: bool = False,
    ) -> Cursor:
        """Admit and plan one statement; return the cursor over its
        plan generator (:meth:`_batches`).

        ``drained`` marks a statement the service itself drains in this
        call (:meth:`query` / :meth:`execute`): its cursor pulls the
        generator on the caller's thread and reports the inline lane,
        whatever the plan scans.  Otherwise the lane is chosen as
        :meth:`execute_stream` describes.

        ``from_text`` marks ``sql`` as the exact text of ``stmt`` (see
        :meth:`_open_text`): only then is a scan-free plan cached.
        ``cached`` is that text's plan-cache entry, if any.
        """
        if self._closed:
            raise ServiceError("service is closed")
        tracer = self.telemetry.tracer
        registry = self.telemetry.registry
        metrics = QueryMetrics()
        metrics.begin()
        root = tracer.new_trace("query", session=str(session_id), sql=sql)
        try:
            with tracer.span(root, "admission") as admission_span:
                waited = self.scheduler.acquire(session_id)
                admission_span.attrs["wait_s"] = round(waited, 6)
            registry.histogram("admission_wait_seconds").observe(waited)
        except BaseException as exc:
            tracer.finish(root, error=repr(exc))
            raise
        try:
            tables: list[tuple[str, RawTableState, RWLock]] = []
            for name in sorted(self._referenced_tables(stmt)):
                state = self._states.get(name)
                lock = self._table_locks.get(name)
                if state is None or lock is None:
                    continue  # planner raises CatalogError with context
                tables.append((name, state, lock))

            # Phase 1 — reconcile external file changes, one short
            # exclusive section per table.
            with tracer.span(root, "reconcile", tables=len(tables)):
                for _, state, lock in tables:
                    with lock.write():
                        with metrics.time(BreakdownComponent.NODB):
                            self._reconcile_file(state)
                        state.begin_query()

            # Phase 2 — plan.  Planning reads schemas and statistics only.
            scans: list[RawScan] = []
            deferred: list = []
            with tracer.span(root, "plan"):
                plan = self._plan(
                    stmt,
                    sql if from_text else None,
                    cached,
                    metrics,
                    scans,
                    root,
                    deferred,
                )
            # The cursor contract is "rows from the table as admitted":
            # the plan re-checks these generations under its locks
            # and fails with CursorInvalidError rather than serve rows
            # from a dropped or rewritten file.
            generations = {
                name: state.generation for name, state, _ in tables
            }
        except BaseException as exc:
            tracer.finish(root, error=repr(exc))
            self.scheduler.release()
            raise

        # The lane: a drained statement, and a plan that scans no raw
        # file, run on this thread.
        inline = drained or not scans
        root.attrs["lane"] = "inline" if inline else "threaded"
        handle = _StreamHandle(
            stream_id=next(self._cursor_ids),
            root=root,
            sql=sql,
            mv_signature=plan.mv_signature,
            mv_decision=plan.mv_decision,
        )
        batches = self._batches(
            plan, scans, tables, generations, metrics, root, deferred
        )
        if inline:
            registry.counter("inline_queries_total").inc()
            source = batches if drained else _produced(batches)
        else:
            handle.channel = BatchChannel(
                self.config.stream_queue_batches, self.config.cursor_ttl_s
            )
            source = handle.channel.drain()
        with self._cursor_lock:
            self._open_streams[handle.stream_id] = handle
            self.cursors_opened += 1

        def finished(cursor: Cursor) -> None:
            self._retire_stream(handle, cursor)
            if on_close is not None:
                on_close(cursor)

        cursor = Cursor(
            list(plan.output_types),
            list(plan.output_types.values()),
            source,
            metrics,
            on_close=finished,
        )
        cursor.trace_id = root.trace_id
        if inline:
            return cursor
        thread = threading.Thread(
            target=self._pump,
            args=(handle.channel, batches),
            name=f"repro-cursor-{handle.stream_id}",
            daemon=True,
        )
        handle.thread = thread
        try:
            thread.start()
        except BaseException:
            self._retire_stream(handle, cursor)
            self.scheduler.release()
            raise
        return cursor

    def _plan(
        self,
        stmt: SelectStatement,
        sql: str | None,
        cached: CachedPlan | None,
        metrics: QueryMetrics,
        scans: list[RawScan],
        root: Span,
        deferred: list,
    ) -> LogicalPlan:
        """Plan ``stmt``, through the plan cache when ``sql`` is its
        exact text.

        A cached shape is reused when the statement's serve verdict
        still names the entry (and kind) it was planned over, level
        with its table; otherwise that verdict is handed to the planner
        — ``serve`` runs once per statement either way, so mining, hit
        counters and capture timing do not depend on the cache.  The
        new plan replaces the entry when it is scan-free, else the
        entry is dropped.
        """
        match = UNSERVED
        if cached is not None:
            sig = cached.shape.mv_signature
            match = None if sig is None else self.mv.serve(sig)
            plan = cached.bind(match)
            if plan is not None:
                return plan
        planner = self._planner(metrics, scans, deferred=deferred)
        plan = planner.plan(stmt, match)
        if sql is not None:
            if not scans:
                self.plan_cache.put(sql, stmt, plan)
            elif cached is not None:
                self.plan_cache.discard(sql, cached)
        return plan

    def explain(self, sql: str) -> str:
        """The physical plan as indented text (EXPLAIN).

        Never reads or fills the plan cache.
        """
        stmt = parse_select(sql)
        metrics = QueryMetrics()
        scans: list[RawScan] = []
        # mining=False: EXPLAIN previews the MV serve decision without
        # counting as a workload repeat or bumping hit/miss counters.
        plan = self._planner(metrics, scans, mining=False).plan(stmt)
        text = plan.explain()
        if not scans:
            text += "\n-- lane: inline (no raw scan)"
        return text

    def build_mv(self, sql: str, session_id: object = 0) -> dict[str, object]:
        """Materialize the aggregate result of ``sql`` right now.

        Runs the query once with capture forced (a wider resident MV
        cannot shadow the build) and installs the finished aggregate as
        a governed :class:`repro.mv.MaterializedAggregate`.  Returns the
        entry's description; idempotent when one is already resident.
        """
        stmt = parse_select(sql)
        sig = self._planner(QueryMetrics(), [], mining=False).mv_signature(
            stmt
        )
        if sig is None:
            raise ServiceError(
                "not an MV-eligible query: needs a single-table aggregate "
                "with re-aggregatable COUNT/SUM/AVG/MIN/MAX (no DISTINCT)"
            )
        existing = self.mv.find(sig)
        if existing is not None:
            return self.mv.describe_entry(existing)
        self.mv.force(sig)
        try:
            self.execute(stmt, session_id=session_id, sql=sql)
        finally:
            self.mv.unforce(sig)
        entry = self.mv.find(sig)
        if entry is None:
            raise ServiceError(
                "materialization failed: the table changed mid-build or "
                "the entry was rejected by the memory budget"
            )
        return self.mv.describe_entry(entry)

    def refresh(self, name: str | None = None) -> dict[str, FileChange]:
        """Detect updates now (instead of before the next query).

        Returns the change detected per table.
        """
        names = [name] if name is not None else list(self._states)
        changes = {}
        for table in names:
            state = self.table_state(table)
            lock = self._table_locks.get(table)
            if lock is None:
                continue
            with lock.write():
                changes[table] = self._reconcile_file(state)
        return changes

    # ------------------------------------------------------------------
    # Execution internals.
    # ------------------------------------------------------------------

    def _batches(
        self,
        plan: LogicalPlan,
        scans: list[RawScan],
        tables: list[tuple[str, RawTableState, RWLock]],
        generations: dict[str, int],
        metrics: QueryMetrics,
        root: Span,
        deferred: list,
    ) -> Iterator[Batch]:
        """The plan's batches: the one body of every lane, pulled by
        whoever consumes it (the caller of a drained statement, the
        inline lane's list, or a cursor's producer thread).

        Takes the table locks on the first pull and holds them across
        its yields.  When it ends — exhausted, failed or closed — it
        releases them, installs what the statement deferred
        (:meth:`_install_deferred`), and frees the scheduler slot taken
        by :meth:`_open`.  Closing it mid-stream (a consumer hang-up)
        finishes like a scan abandoned by a ``LIMIT``: every scan still
        harvests the row prefix it completed.  An error is stamped with
        the trace id and propagates to the consumer.
        """
        try:
            with self.telemetry.tracer.span(root, "produce"):
                shared, held = self._lock_tables(
                    scans, tables, generations, root
                )
                if shared:

                    def defer(scan: RawScan, learned: InstallPlan) -> None:
                        # A query that learned nothing takes no write
                        # lock: every columnstore load or tail comes
                        # with harvested columns.
                        if not learned.empty():
                            deferred.append(
                                (
                                    scan.state.entry.name,
                                    lambda __: install(scan, learned),
                                )
                            )

                    for scan in scans:
                        scan._install_sink = defer
                try:
                    # The locks are held while the plan produces: until
                    # the consumer has pulled the last batch or closed
                    # (a cursor's bounded channel flow-controls its
                    # producer, bounded by cursor_ttl_s).
                    yield from self._operator_batches(plan, root)
                except GeneratorExit:
                    pass  # the consumer hung up: finish normally
                finally:
                    self._release_all(tables, write=not shared, held=held)
                    # After the rows are out — also when the consumer
                    # closed or timed out mid-stream: abandoning the
                    # consumer never wastes what the plan discovered.
                    self._install_deferred(deferred, tables, generations)

                # The table rows the scans covered: all of them, or —
                # under an MV hit — none, or only those past the entry's
                # watermark.
                for scan in scans:
                    if scan.row_to is not None:
                        metrics.rows_scanned += max(
                            scan.row_to - scan.row_from, 0
                        )
        except BaseException as exc:
            # Stamp the trace id so the wire server's ERROR frame (and
            # any other consumer) can correlate the failure.
            try:
                exc.trace_id = root.trace_id
            except Exception:  # exotic immutable exception
                pass
            raise
        finally:
            self.scheduler.release()

    def _lock_tables(
        self,
        scans: list[RawScan],
        tables: list[tuple[str, RawTableState, RWLock]],
        generations: dict[str, int],
        root: Span,
    ) -> tuple[bool, list[float]]:
        """Take the plan's table locks and check its generations.

        Shared when every scan can be served by already-built
        structures (what such a scan learns is deferred), exclusive
        otherwise.  An MV-served plan has no scans at all, so all()
        over the empty list puts it on the shared-lock path
        automatically: a generation check under shared locks, zero
        raw-file work.  Returns ``(shared, held)``; on an error no lock
        is left held.
        """
        shared = bool(tables) and all(
            scan.state.covers(scan.needed_attrs) for scan in scans
        )
        if shared:
            held = self._acquire_all(tables, write=False, root=root)
            try:
                self._check_generations(tables, generations)
            except BaseException:
                self._release_all(tables, write=False, held=held)
                raise
            # Re-check under the locks: another query's reconcile may
            # have flagged an append/rewrite between classification and
            # acquisition.  Once the shared locks are held no writer can
            # change that verdict (reconcile needs the write lock).  A
            # cross-table governor eviction before a scan plans sends
            # it down a lower rung of its ladder — at worst tokenizing,
            # whose results are deferred like everything else; once it
            # has planned, the columns it reads are pinned, and an
            # eviction changes neither what it reads nor its answer.
            if all(scan.state.covers(scan.needed_attrs) for scan in scans):
                return True, held
            self._release_all(tables, write=False, held=held)
        held = self._acquire_all(tables, write=True, root=root)
        try:
            self._check_generations(tables, generations)
        except BaseException:
            self._release_all(tables, write=True, held=held)
            raise
        return False, held

    def _operator_batches(
        self, plan: LogicalPlan, root: Span
    ) -> Iterator[Batch]:
        """Drive the operator tree, batch by batch.

        Closing it (a consumer hang-up) or an error closes the plan's
        generators; their ``finally`` blocks run, so every scan still
        harvests the row prefix it completed.
        """
        n_batches = 0
        batches = plan.root.execute()
        with self.telemetry.tracer.span(root, "pump") as pump_span:
            try:
                for batch in batches:
                    yield batch
                    n_batches += 1
            finally:
                closer = getattr(batches, "close", None)
                if closer is not None:
                    closer()
                pump_span.attrs["batches"] = n_batches
                self.telemetry.registry.counter("stream_batches_total").inc(
                    n_batches
                )

    @staticmethod
    def _pump(channel: BatchChannel, batches: Iterator[Batch]) -> None:
        """A threaded cursor's producer: loop the plan's batches into
        ``channel``, then finish it.

        A consumer hang-up (``put`` returning ``False``) closes the
        plan, which finishes like a scan abandoned by a ``LIMIT``; a
        flow-control timeout is thrown into the plan, which ends it as
        that error.  The error that stopped production reaches the
        consumer after the batches that preceded it.  BaseException is
        caught: swallowing even SystemExit here is better than a
        channel that never finishes (consumer hang) or finishes clean
        (silent truncation).
        """
        error = None
        try:
            for batch in batches:
                try:
                    more = channel.put(batch)
                except BaseException as exc:
                    batches.throw(exc)
                    raise
                if not more:
                    break
        except BaseException as exc:
            error = exc
        finally:
            batches.close()
        channel.finish(error)

    def _install_deferred(
        self,
        deferred: list,
        tables: list[tuple[str, RawTableState, RWLock]],
        generations: dict[str, int],
    ) -> None:
        """Install what a statement deferred, each under its table's
        write lock, in the order it was deferred: what the shared-lock
        scans learned (e.g. columns converted on the positional-map
        jump path, combination chunks), then the MV folds (captures and
        tail merges).

        ``deferred`` holds ``(table, install)`` pairs.  One is discarded
        when its table was dropped or rewritten since planning (its
        generation moved): it describes a file that no longer exists.
        An append since then discards nothing — every MV fold carries
        the row count its scan folded, so the entry is simply installed
        lagging and the next hit merges the tail.
        """
        held = {name: (state, lock) for name, state, lock in tables}
        for table, step in deferred:
            if table not in held:
                continue  # registered after the plan chose its locks
            state, lock = held[table]
            with lock.write():
                if (
                    self._states.get(table) is state
                    and state.generation == generations[table]
                ):
                    step(state.generation)
        # The scans' sinks hold this list: break the cycle, so they and
        # the entries their plans pin are freed now, not at the next GC.
        deferred.clear()

    def _check_generations(
        self,
        tables: list[tuple[str, RawTableState, RWLock]],
        generations: dict[str, int],
    ) -> None:
        """Fail a cursor cleanly when its tables changed under it.

        Called with the table locks held, before any batch is produced:
        a ``drop_table`` or rewrite-reconcile that won the race between
        admission and lock acquisition invalidates the plan's offsets,
        so the cursor raises :class:`CursorInvalidError` instead of
        serving rows from state that no longer exists.
        """
        for name, state, _ in tables:
            if self._states.get(name) is not state:
                raise CursorInvalidError(
                    f"table {name!r} was dropped before the cursor "
                    "could stream it"
                )
            if state.generation != generations[name]:
                raise CursorInvalidError(
                    f"raw file behind table {name!r} was rewritten "
                    "before the cursor could stream it"
                )

    def _retire_stream(self, handle: "_StreamHandle", cursor: Cursor) -> None:
        """Cursor finished (exhausted, closed or errored): bookkeeping.

        Joins the producer first (threaded lane), so ``Cursor.close()``
        returning means the locks are released and the scan's learnings
        are installed.
        """
        thread = handle.thread
        if (
            thread is not None
            and thread.ident is not None
            and thread is not threading.current_thread()
        ):
            thread.join(timeout=10)
            # A mid-stream close stamps total_seconds on the consumer
            # side while the producer is still folding in its worker
            # metrics; now that the producer is joined, re-derive the
            # processing bucket so the Figure-3 stack stays coherent.
            cursor.metrics.settle_processing()
        with self._cursor_lock:
            if self._open_streams.pop(handle.stream_id, None) is None:
                return  # already retired
            self.cursors_finished += 1
            if handle.channel is not None and handle.channel.timed_out:
                self.cursors_abandoned += 1
            ttfb = cursor.metrics.time_to_first_batch
            if ttfb is not None:
                self._last_ttfb = ttfb
        self.telemetry.tracer.finish(
            handle.root, rows=cursor.rows_fetched
        )
        self.telemetry.note_query(
            cursor.metrics, trace_id=handle.root.trace_id, sql=handle.sql
        )
        if handle.mv_signature is not None:
            # Workload mining, cost half: the observed seconds of this
            # completion — raw runs measure what an MV would save,
            # served runs measure what it actually costs.
            self.mv.observe_completion(
                handle.mv_signature,
                handle.mv_decision,
                cursor.metrics.total_seconds,
            )

    def _acquire_all(self, tables, write: bool, root: Span) -> list[float]:
        # Tables are pre-sorted by name: a global acquisition order makes
        # multi-table queries deadlock-free.
        tracer = self.telemetry.tracer
        registry = self.telemetry.registry
        mode = "write" if write else "read"
        held = []
        for name, _, lock in tables:
            waited = (
                lock.acquire_write() if write else lock.acquire_read()
            )
            held.append(time.perf_counter())
            registry.histogram(
                "lock_wait_seconds", {"table": name, "mode": mode}
            ).observe(waited)
            tracer.add_span(
                root, f"lock:{name}", waited, mode=mode
            )
        return held

    def _release_all(
        self, tables, write: bool, held: list[float] | None = None
    ) -> None:
        registry = self.telemetry.registry
        mode = "write" if write else "read"
        now = time.perf_counter()
        for i, (name, _, lock) in reversed(list(enumerate(tables))):
            lock.release_write() if write else lock.release_read()
            if held is not None and i < len(held):
                registry.histogram(
                    "lock_hold_seconds", {"table": name, "mode": mode}
                ).observe(now - held[i])

    def _planner(
        self,
        metrics: QueryMetrics,
        scans: list[RawScan],
        mining: bool = True,
        deferred: list | None = None,
    ) -> Planner:
        def scan_factory(
            table: str,
            columns: list[str],
            predicate: Expression | None,
            row_from: int = 0,
        ) -> RawScan:
            # table_state (not a bare dict lookup) so a concurrent
            # drop_table surfaces as CatalogError, never KeyError.
            scan = RawScan(
                self.table_state(table),
                metrics,
                columns,
                predicate,
                row_from=row_from,
                kernel_cache=self.kernel_cache,
            )
            scans.append(scan)
            return scan

        return Planner(
            self.catalog,
            scan_factory,
            self._stats_provider,
            mv=self.mv,
            mv_mining=mining,
            mv_captures=deferred,
        )

    def _stats_provider(self, table: str) -> StatisticsStore | None:
        if not self.config.enable_statistics:
            return None
        state = self._states.get(table)
        return state.statistics if state is not None else None

    def _table_rows(self, table: str) -> int | None:
        """Rows of ``table`` as last reconciled — what the watermarks of
        its MVs and promoted columns are measured against.  ``None``
        while that is unknown: an append is detected but not indexed
        yet, or no line index exists (never scanned, or not kept)."""
        state = self._states.get(table)
        return None if state is None else state.table_rows()

    @staticmethod
    def _referenced_tables(stmt: SelectStatement) -> list[str]:
        names = []
        if stmt.from_table is not None:
            names.append(stmt.from_table.name)
        names.extend(j.table.name for j in stmt.joins)
        return list(dict.fromkeys(names))

    def _reconcile_file(self, state: RawTableState) -> FileChange:
        """Detect external changes to the raw file and reconcile state.

        An append invalidates nothing: positional-map chunks, cache
        entries, promoted columns and materialized aggregates all
        describe a row prefix (each with its own watermark) and stay
        valid for it; ``pending_append`` only tells the next scan to
        index the new tail, and whatever that scan touches is extended
        over it.  A rewrite drops everything (the file is effectively
        new).  Callers hold the table's write lock.
        """
        path = state.entry.path
        if state.fingerprint is None:
            state.fingerprint = fingerprint_file(path)
            return FileChange.UNCHANGED
        change, fingerprint = detect_change(state.fingerprint, path)
        if change is FileChange.MISSING:
            raise RawDataError(f"raw file disappeared: {path}")
        if change is FileChange.APPENDED:
            state.pending_append = True
            state.fingerprint = fingerprint
        elif change is FileChange.REWRITTEN:
            state.invalidate()
            state.fingerprint = fingerprint
            self.mv.invalidate_table(state.entry.name)
        else:
            state.fingerprint = fingerprint
        return change

    # ------------------------------------------------------------------
    # Introspection (monitoring panels).
    # ------------------------------------------------------------------

    def lock_stats(self) -> dict[str, dict[str, int]]:
        """Per-table RW-lock acquisition/contention counters."""
        with self._registry_lock:
            return {
                name: lock.stats()
                for name, lock in sorted(self._table_locks.items())
            }

    def _collect_mv(self) -> dict[str, object]:
        """Registry collector: MV cache stats."""
        return self.mv.stats()

    def _collect_columnstores(self) -> list[dict[str, object]] | None:
        """Registry collector: promoted columns, their watermarks and
        each column's rent toward a load (rent-or-buy), one row per
        table (None when ``vp_enabled`` is off)."""
        stats = [
            {
                **state.columnstore.stats(state.table_rows()),
                "rent": state.rents(),
            }
            for __, state in sorted(self._states.items())
            if state.columnstore is not None
        ]
        return stats or None

    def cursor_stats(self) -> dict[str, object]:
        """Streaming-cursor gauges for the concurrency panel."""
        # The mean of the TTFB histogram, which retiring cursors fill.
        ttfb = self.telemetry.registry.histogram("ttfb_seconds").snapshot()
        with self._cursor_lock:
            return {
                "open": len(self._open_streams),
                "opened": self.cursors_opened,
                "finished": self.cursors_finished,
                "abandoned": self.cursors_abandoned,
                "avg_ttfb_s": ttfb.get("mean"),
                "last_ttfb_s": self._last_ttfb,
            }
