"""The load-first conventional DBMS.

One engine class serves all three conventional contestants — the
:class:`SystemProfile` decides row vs column storage and how much
tuning happens at load time.  The SQL stack (parser, planner, optimizer,
executor) is shared with PostgresRaw; only the leaves differ:

* heap / column-store scans over loaded binary data,
* optional B+-tree **index scans** when a pushed predicate matches an
  index,
* optional **zone-map block skipping** on the column store.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from ..batch import Batch
from ..catalog.catalog import Catalog, LoadedTableEntry
from ..catalog.schema import TableSchema
from ..config import DEFAULT_BATCH_SIZE
from ..core.metrics import QueryMetrics
from ..core.stats import StatisticsStore
from ..core.synopsis import column_intervals, column_op_literal
from ..datatypes import DataType
from ..errors import CatalogError
from ..executor.expressions import predicate_mask
from ..executor.operators import Operator
from ..executor.result import QueryResult
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT
from ..sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    SelectStatement,
    split_conjuncts,
)
from ..sql.parser import parse_select
from ..sql.planner import Planner
from ..storage.btree import BPlusTree
from ..storage.columnstore import ZONE_BLOCK_ROWS, ColumnStoreTable
from ..storage.heap import RowHeapTable
from ..storage.loader import LoadReport, load_csv_to_columns
from .profiles import POSTGRESQL, SystemProfile

_STATS_SAMPLE = 2048


class _StoredScan(Operator):
    """Leaf operator over a loaded table, with optional block skipping."""

    def __init__(
        self,
        table,
        columns: list[str],
        predicate: Expression | None,
        metrics: QueryMetrics,
        batch_size: int,
        block_filter: np.ndarray | None = None,
    ) -> None:
        self.table = table
        self.columns = columns
        self.predicate = predicate
        self.metrics = metrics
        self.batch_size = batch_size
        self.block_filter = block_filter

    def output_types(self) -> dict[str, DataType]:
        return {c: self.table.schema.dtype_of(c) for c in self.columns}

    def describe(self) -> str:
        kind = type(self.table).__name__
        skipping = " +zonemap" if self.block_filter is not None else ""
        return f"StoredScan[{kind}{skipping}] -> {', '.join(self.columns)}"

    def _scan_columns(self) -> list[str]:
        extra = []
        if self.predicate is not None:
            from ..sql.ast import expr_column_refs

            extra = [
                r.name
                for r in expr_column_refs(self.predicate)
                if r.name not in self.columns
            ]
        return self.columns + list(dict.fromkeys(extra))

    def execute(self) -> Iterator[Batch]:
        scan_cols = self._scan_columns()
        if isinstance(self.table, ColumnStoreTable):
            batches = self.table.scan(
                scan_cols, self.batch_size, self.metrics, self.block_filter
            )
        else:
            batches = self.table.scan(scan_cols, self.batch_size, self.metrics)
        for batch in batches:
            if self.predicate is not None and batch.num_rows:
                keep = predicate_mask(self.predicate, batch)
                if not keep.any():
                    continue
                if not keep.all():
                    batch = batch.filter(keep)
            if scan_cols != self.columns:
                batch = Batch(
                    {c: batch.column(c) for c in self.columns},
                    num_rows=batch.num_rows,
                )
            yield batch


class _IndexScan(Operator):
    """B+-tree lookup followed by a gather of the qualifying rows."""

    def __init__(
        self,
        table,
        columns: list[str],
        row_ids: np.ndarray,
        residual: Expression | None,
        metrics: QueryMetrics,
        batch_size: int,
    ) -> None:
        self.table = table
        self.columns = columns
        self.row_ids = row_ids
        self.residual = residual
        self.metrics = metrics
        self.batch_size = batch_size

    def output_types(self) -> dict[str, DataType]:
        return {c: self.table.schema.dtype_of(c) for c in self.columns}

    def describe(self) -> str:
        return (
            f"IndexScan[{len(self.row_ids)} rows] -> "
            f"{', '.join(self.columns)}"
        )

    def execute(self) -> Iterator[Batch]:
        scan_cols = self.columns
        residual_cols: list[str] = []
        if self.residual is not None:
            from ..sql.ast import expr_column_refs

            residual_cols = [
                r.name
                for r in expr_column_refs(self.residual)
                if r.name not in scan_cols
            ]
        all_cols = scan_cols + list(dict.fromkeys(residual_cols))
        for i0 in range(0, len(self.row_ids), self.batch_size):
            ids = self.row_ids[i0 : i0 + self.batch_size]
            batch = self.table.gather(all_cols, ids, self.metrics)
            if self.residual is not None and batch.num_rows:
                keep = predicate_mask(self.residual, batch)
                if not keep.any():
                    continue
                if not keep.all():
                    batch = batch.filter(keep)
            if all_cols != scan_cols:
                batch = Batch(
                    {c: batch.column(c) for c in scan_cols},
                    num_rows=batch.num_rows,
                )
            if batch.num_rows or not scan_cols:
                yield batch


class ConventionalDBMS:
    """A load-then-query engine configured by a :class:`SystemProfile`."""

    def __init__(
        self,
        profile: SystemProfile = POSTGRESQL,
        storage_dir: str | Path | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.profile = profile
        self.batch_size = batch_size
        if storage_dir is None:
            storage_dir = tempfile.mkdtemp(prefix="repro_dbms_")
        self.storage_dir = Path(storage_dir)
        self.storage_dir.mkdir(parents=True, exist_ok=True)
        self.catalog = Catalog()
        self._stats: dict[str, StatisticsStore] = {}
        self._indexes: dict[tuple[str, str], BPlusTree] = {}
        self.load_reports: dict[str, LoadReport] = {}

    # ------------------------------------------------------------------
    # Initialization (the phase PostgresRaw skips).
    # ------------------------------------------------------------------

    def load_csv(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema,
        dialect: CsvDialect = DEFAULT_DIALECT,
    ) -> LoadReport:
        """COPY: parse the whole raw file and persist it in binary form."""
        columns, report = load_csv_to_columns(path, schema, dialect)

        t0 = time.perf_counter()
        if self.profile.storage == "column":
            table = ColumnStoreTable.create(
                self.storage_dir / f"{name}.cols",
                schema,
                columns,
                zone_rows=(
                    ZONE_BLOCK_ROWS if self.profile.build_zone_maps else None
                ),
            )
        else:
            table = RowHeapTable.create(
                self.storage_dir / f"{name}.heap", schema, columns
            )
        report.write_seconds = time.perf_counter() - t0

        if self.profile.analyze_on_load:
            t0 = time.perf_counter()
            self._analyze_columns(name, schema, columns)
            report.analyze_seconds = time.perf_counter() - t0

        self.catalog.register_loaded(name, schema, table)
        self.load_reports[name] = report
        return report

    def _analyze_columns(self, name: str, schema, columns) -> None:
        store = StatisticsStore(sample_size=_STATS_SAMPLE)
        n_rows = 0
        for column in schema:
            vec = columns[column.name]
            n_rows = len(vec)
            store.observe(column.name, vec, 0)
        store.set_row_estimate(n_rows)
        self._stats[name] = store

    def analyze(self, name: str) -> float:
        """ANALYZE an already-loaded table; returns seconds spent."""
        entry = self._loaded(name)
        t0 = time.perf_counter()
        store = StatisticsStore(sample_size=_STATS_SAMPLE)
        row = 0
        for batch in entry.table.scan(entry.schema.names(), self.batch_size):
            for col_name, vector in batch.columns.items():
                store.observe(col_name, vector, row)
            row += batch.num_rows
        store.set_row_estimate(entry.table.num_rows)
        self._stats[name] = store
        elapsed = time.perf_counter() - t0
        if name in self.load_reports:
            self.load_reports[name].analyze_seconds += elapsed
        return elapsed

    def create_index(self, name: str, column: str) -> float:
        """Build a B+-tree on one column; returns seconds spent."""
        entry = self._loaded(name)
        entry.schema.position(column)  # validates
        t0 = time.perf_counter()
        keys: list[object] = []
        for batch in entry.table.scan([column], self.batch_size):
            keys.extend(batch.column(column).to_pylist())
        self._indexes[(name, column)] = BPlusTree.bulk_build(keys)
        elapsed = time.perf_counter() - t0
        if name in self.load_reports:
            self.load_reports[name].index_seconds += elapsed
        return elapsed

    def initialization_seconds(self, name: str) -> float:
        report = self.load_reports.get(name)
        return report.total_seconds if report is not None else 0.0

    def _loaded(self, name: str) -> LoadedTableEntry:
        entry = self.catalog.lookup(name)
        if not isinstance(entry, LoadedTableEntry):
            raise CatalogError(f"table {name!r} is not a loaded table")
        return entry

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def query(self, sql: str) -> QueryResult:
        return self.execute(parse_select(sql))

    def execute(self, stmt: SelectStatement) -> QueryResult:
        metrics = QueryMetrics()
        metrics.begin()
        planner = Planner(
            self.catalog,
            self._scan_factory_for(metrics),
            lambda table: self._stats.get(table),
        )
        plan = planner.plan(stmt)
        batches = list(plan.root.execute())
        result = QueryResult.from_batches(batches, plan.output_types, metrics)
        metrics.end()
        metrics.settle_processing()
        return result

    def explain(self, sql: str) -> str:
        stmt = parse_select(sql)
        planner = Planner(
            self.catalog,
            self._scan_factory_for(QueryMetrics()),
            lambda table: self._stats.get(table),
        )
        return planner.plan(stmt).explain()

    def _scan_factory_for(self, metrics: QueryMetrics):
        def factory(
            table_name: str,
            columns: list[str],
            predicate: Expression | None,
        ) -> Operator:
            entry = self._loaded(table_name)
            table = entry.table

            index_plan = self._try_index(table_name, predicate)
            if index_plan is not None:
                row_ids, residual = index_plan
                return _IndexScan(
                    table, columns, row_ids, residual, metrics, self.batch_size
                )

            block_filter = None
            if (
                isinstance(table, ColumnStoreTable)
                and self.profile.build_zone_maps
                and predicate is not None
            ):
                block_filter = self._zone_filter(table, predicate)
            return _StoredScan(
                table,
                columns,
                predicate,
                metrics,
                self.batch_size,
                block_filter,
            )

        return factory

    # -- index selection ------------------------------------------------

    def _try_index(
        self, table_name: str, predicate: Expression | None
    ) -> tuple[np.ndarray, Expression | None] | None:
        if predicate is None:
            return None
        conjuncts = split_conjuncts(predicate)
        for i, conjunct in enumerate(conjuncts):
            probe = self._index_probe(table_name, conjunct)
            if probe is None:
                continue
            rest = conjuncts[:i] + conjuncts[i + 1 :]
            residual = None
            if rest:
                residual = rest[0]
                for extra in rest[1:]:
                    residual = BinaryOp("and", residual, extra)
            return probe, residual
        return None

    def _index_probe(
        self, table_name: str, conjunct: Expression
    ) -> np.ndarray | None:
        hit = column_op_literal(conjunct)
        if hit is not None:
            column, literal, op = hit
            tree = self._indexes.get((table_name, column.name))
            if tree is None:
                return None
            value = literal.value
            if op == "=":
                return tree.search_eq(value)
            if op in ("<", "<="):
                return tree.search_range(
                    None, value, high_inclusive=op == "<="
                )
            return tree.search_range(value, None, low_inclusive=op == ">=")
        if isinstance(conjunct, Between) and not conjunct.negated:
            if not isinstance(conjunct.expr, ColumnRef):
                return None
            if not (
                isinstance(conjunct.low, Literal)
                and isinstance(conjunct.high, Literal)
            ):
                return None
            tree = self._indexes.get((table_name, conjunct.expr.name))
            if tree is None:
                return None
            return tree.search_range(conjunct.low.value, conjunct.high.value)
        return None

    # -- zone maps -------------------------------------------------------

    def _zone_filter(
        self, table: ColumnStoreTable, predicate: Expression
    ) -> np.ndarray | None:
        """Blocks that *might* contain qualifying rows, per zone maps."""
        keep = None
        for column, intervals in column_intervals(predicate):
            zone_map = table.zone_map(column)
            if zone_map is not None:
                possible = zone_map.possible(intervals)
                keep = possible if keep is None else keep & possible
        return keep
