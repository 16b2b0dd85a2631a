"""Vertical persistence: governed loading of hot raw columns.

The NoDB-to-loaded continuum ("Workload-Driven Vertical Partitioning",
PAPERS.md): the workload itself nominates hot (table, column) pairs of a
raw table, and their converted vectors are written into columnstore
files (:mod:`repro.storage.columnstore`) that scans map back.  The
files are a governed tier, not a durable one: their bytes are charged
to ``memory_budget``, a column's directory is rewritten whole when it
is promoted again, nothing reads an existing directory at start-up,
and every column's files are removed on eviction, when the raw file is
rewritten, and when the table is dropped or its engine closed.  Later
scans serve those columns straight from binary storage — no raw-file
I/O, no tokenizing, no parsing — while the table stays registered in
situ.

One way in, a *load*: a projection-only column that scans keep
reading for a few survivors through the positional map has paid, in
raw bytes read, the price of one whole conversion (rent-or-buy,
:mod:`repro.core.scan_plan`); the next such scan converts it whole and
it is written here, and not into the cache.  A column the cache holds
is never copied here: each converted column has one binary copy.

One :class:`VerticalStore` exists per raw table (when ``vp_enabled``):
the ``columnstore`` tier of its :class:`repro.core.table_state.RawTableState`,
between the cache and the positional map on the scan's ladder.  It is a
:class:`repro.core.ledger.GovernedLedger` keyed by attribute and
registered with the governor as kind ``"columnstore"``: promoted bytes
are admitted against the same budget as positional-map chunks, cache
entries and materialized aggregates, and evict per column by
benefit-per-byte.  What is the store's own is the files: the ledger's
eviction hook removes an evicted column's directory, and a column's
bytes are admitted before its files are written, so a refused load
writes nothing.  Mutations run under the governor's lock; lookups read
the ledger's snapshot.  A scan *pins* a column when it plans
(:meth:`VerticalStore.pin` maps its arrays under the lock), so an
eviction while it reads removes the files but not the mapping.

A promoted INTEGER, FLOAT or DATE column carries the columnstore's zone
map in windows of the scan's ``batch_size`` rows — the same
:class:`repro.core.synopsis.Synopsis` a cache entry carries, built when
it is loaded and governed with its files — so a scan can skip the
windows its predicate rules out.

A promoted column covers a row *prefix* of its table (``rows`` is its
watermark).  An append leaves it valid: scans read the prefix from the
columnstore and only the new tail from the raw file; once a scan
converts that tail whole (or loads it), :meth:`VerticalStore.extend`
appends it onto the column's files in O(tail) bytes and re-derives
only the zone map's tail window.
Rewrites, drops and ``close`` invalidate the whole store (through the
table state).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..batch import ColumnVector
from ..catalog.schema import Column, TableSchema
from ..config import DEFAULT_BATCH_SIZE
from ..core.ledger import GovernedLedger, now
from ..core.synopsis import Synopsis
from ..datatypes import DataType
from .columnstore import ColumnStoreTable, column_files, saved_bytes


@dataclass
class PromotedColumn:
    """One (table, column) pair resident in the columnstore tier."""

    attr: int
    name: str
    dtype: DataType
    store: ColumnStoreTable
    rows: int
    nbytes: int
    #: Measured conversion time the promotion captured — what a future
    #: scan of this column saves, for benefit-per-byte eviction.
    benefit_seconds: float
    last_used_ts: float = field(default_factory=now)
    hits: int = 0

    @property
    def synopsis(self) -> Synopsis | None:
        return self.store.zone_map(self.name)


class VerticalStore(GovernedLedger):
    """Per-table columnstore tier holding promoted hot columns;
    ``window_rows`` is the window of their zone maps."""

    def __init__(
        self,
        table: str,
        root: str | Path,
        governor,
        registry,
        window_rows: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(governor, on_evict=_remove_files)
        self.table = table
        self.root = Path(root)
        self.registry = registry
        self.window_rows = window_rows

    # ------------------------------------------------------------------
    # Promotion / serving.
    # ------------------------------------------------------------------

    def coverage_rows(self, attr: int) -> int:
        column = self.peek(attr)
        return column.rows if column is not None else 0

    def pin(
        self, attr: int, rows: int, metrics=None
    ) -> PromotedColumn | None:
        """The promoted column of ``attr`` if it holds at least ``rows``
        rows, its arrays mapped (the loads charged to ``metrics``) so it
        stays readable after an eviction removes its files."""
        if self.coverage_rows(attr) < rows:
            return None
        # Under the lock no eviction can remove the files mid-load.
        with self.governor.lock:
            column = self.peek(attr)
            if column is None:
                return None  # evicted since
            column.store._column_arrays(column.name, metrics)
        return column

    def promote(
        self,
        attr: int,
        name: str,
        dtype: DataType,
        vector: ColumnVector,
        benefit_seconds: float,
    ) -> bool:
        """Write one converted column into the columnstore tier.

        Its bytes — the files about to be written, plus the zone map —
        are admitted through the governor first, which may evict other
        governed structures or refuse: then nothing is written, and an
        earlier promotion of the same column stays.  The files are
        written under the governor's lock, so no scan pins the column
        before they are whole.  Returns whether the new column is now
        resident.
        """
        directory = self.root / f"{self.table}-{attr}-{name}"
        schema = TableSchema([Column(name, dtype)])
        files = column_files(name, vector)
        zone_map = Synopsis.of(vector, self.window_rows)
        store = ColumnStoreTable(
            directory, schema, {} if zone_map is None else {name: zone_map}
        )
        column = PromotedColumn(
            attr=attr,
            name=name,
            dtype=dtype,
            store=store,
            rows=len(vector),
            nbytes=sum(map(saved_bytes, files.values())) + store.zone_bytes(),
            benefit_seconds=benefit_seconds,
        )
        with self.governor.lock:
            if not self.admit(attr, column):
                return False
            shutil.rmtree(directory, ignore_errors=True)
            try:
                directory.mkdir(parents=True)
                for file, array in files.items():
                    np.save(directory / file, array)
            except BaseException:
                self._remove(attr)
                _remove_files(column)
                raise
        self.registry.counter("vp_promotions_total").inc()
        return True

    def extend(self, attr: int, tail: ColumnVector) -> bool:
        """Append ``tail`` — the table rows right after the promoted
        prefix of ``attr`` — onto the column's files.

        Costs O(tail) bytes of I/O (a TEXT tail adds its codes and the
        strings the column's dictionary lacks); the added bytes are
        admitted through the governor first.  ``False`` (the column
        keeps its old prefix) when it refuses or when the column is not
        resident.
        """
        # Under the governor's lock no grant elsewhere can evict the
        # column while its files are being appended to; the growing
        # column itself is protected from its own grant.
        with self.governor.lock:
            column = self.peek(attr)
            if column is None:
                return False
            added = column.store.extend(
                {column.name: tail},
                lambda nbytes: self.grow(attr, nbytes),
            )
            if not added:
                return False
            column.rows += len(tail)
            column.nbytes += added
        self.registry.counter("vp_extends_total").inc()
        return True

    def read(
        self,
        column: PromotedColumn,
        lo: int,
        hi: int,
        sel: np.ndarray | None,
        metrics,
    ) -> ColumnVector:
        """Serve rows [lo, hi) (or the ``sel`` subset) of a pinned
        column from its mapped arrays — also after it was evicted.

        A TEXT column is served as codes plus its dictionary, decoded
        once when the column was pinned; the raw file is never touched.
        """
        self.touch(column)
        column.hits += 1
        self.registry.counter("vp_served_total").inc()
        index = sel if sel is not None else slice(lo, hi)
        return column.store._vector(column.name, index, metrics)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def invalidate(self) -> int:
        """Rewrite/drop: the promoted prefixes describe another file."""
        with self.governor.lock:
            for column in self.entries():
                _remove_files(column)
            dropped = super().invalidate()
        self.registry.counter("vp_invalidations_total").inc(dropped)
        return dropped

    def stats(self, table_rows: int | None = None) -> dict[str, object]:
        """``table_rows``: the table's reconciled row count, when known
        (a column's ``lag_rows`` is how far its watermark trails it)."""
        with self.governor.lock:
            columns = self.entries()
            return {
                "table": self.table,
                "columns": sorted(c.name for c in columns),
                "nbytes": self.used_bytes,
                "hits": sum(c.hits for c in columns),
                "rows": {c.name: c.rows for c in columns},
                "lag_rows": {
                    c.name: (
                        None
                        if table_rows is None
                        else max(table_rows - c.rows, 0)
                    )
                    for c in columns
                },
            }


def _remove_files(column: PromotedColumn) -> None:
    shutil.rmtree(column.store.directory, ignore_errors=True)
