"""Vertical persistence: governed promotion of hot raw columns.

The NoDB-to-loaded continuum ("Workload-Driven Vertical Partitioning",
PAPERS.md): the workload itself nominates hot (table, column) pairs of a
raw table, and their already-converted vectors are written into the
on-disk columnstore (:mod:`repro.storage.columnstore`) as a *durable*
governed cache tier.  Later scans serve those columns straight from
binary storage — no raw-file I/O, no tokenizing, no parsing — while the
table stays registered in situ.

Two ways nominate a column, both only once it has been read
``vp_min_accesses`` times (:mod:`repro.core.install`):

* *promotion* — a scan converted every row the column lacks (or the
  cache holds them): those vectors are written as they are;
* *loading* — a projection-only column that scans keep reading for a
  few survivors through the positional map has paid, in raw bytes
  read, the price of one whole conversion (rent-or-buy,
  :mod:`repro.core.scan_plan`): the next such scan converts it whole
  and it is written here, and not into the cache.  ``vp_loads_total``
  counts loads; :meth:`VerticalStore.stats` names the columns that
  came in by one.

One :class:`VerticalStore` exists per raw table (when ``vp_enabled``):
the ``columnstore`` tier of its :class:`repro.core.table_state.RawTableState`,
between the cache and the positional map on the scan's ladder.  It is a
:class:`repro.core.ledger.GovernedLedger` keyed by attribute and
registered with the governor as kind ``"columnstore"``: promoted bytes
are admitted against the same budget as positional-map chunks, cache
entries and materialized aggregates, and evict per column by
benefit-per-byte.  What is the store's own is the files: the ledger's
eviction hook removes an evicted column's directory, and a promotion
is written beside the column it replaces and swapped in only once
admitted.  Mutations run under the governor's lock; lookups read the
ledger's snapshot.  A scan *pins* a column when it plans
(:meth:`VerticalStore.pin` maps its arrays under the lock), so an
eviction while it reads removes the files but not the mapping.

A promoted INTEGER, FLOAT or DATE column carries the columnstore's zone
map in windows of the scan's ``batch_size`` rows — the same
:class:`repro.core.synopsis.Synopsis` a cache entry carries, built when
it is promoted and governed with its files — so a scan can skip the
windows its predicate rules out.

A promoted column covers a row *prefix* of its table (``rows`` is its
watermark).  An append leaves it valid: scans read the prefix from the
columnstore and only the new tail from the raw file, and
:meth:`VerticalStore.extend` then appends that tail onto the column's
files in O(tail) bytes, and re-derives only the zone map's tail window.
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
from .columnstore import ColumnStoreTable


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
    #: Came in by a load (rent-or-buy), not by a promotion.
    loaded: bool = False

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
        registry=None,
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
        load: bool = False,
    ) -> bool:
        """Write one converted column into the columnstore tier
        (``load``: converted whole to be loaded, see the module
        docstring).

        Bytes are measured from the files actually written, plus the
        zone map, then admitted through the governor (which may evict
        other governed structures — or refuse, in which case the files
        are removed again).  The files are written beside those of an
        earlier promotion of the same column and swapped in once
        admitted, so a refusal keeps the old prefix.  Returns whether
        the new column is now resident.
        """
        directory = self.root / f"{self.table}-{attr}-{name}"
        staging = directory.with_name(directory.name + ".new")
        schema = TableSchema([Column(name, dtype)])
        staged = ColumnStoreTable.create(
            staging, schema, {name: vector}, self.window_rows
        )
        column = PromotedColumn(
            attr=attr,
            name=name,
            dtype=dtype,
            store=ColumnStoreTable(directory, schema, staged.zone_maps),
            rows=len(vector),
            nbytes=staged.storage_bytes() + staged.zone_bytes(),
            benefit_seconds=benefit_seconds,
            loaded=load,
        )
        with self.governor.lock:
            if not self.admit(attr, column):
                shutil.rmtree(staging, ignore_errors=True)
                return False
            shutil.rmtree(directory, ignore_errors=True)
            staging.rename(directory)
        self._count("vp_promotions_total", load)
        return True

    def extend(
        self, attr: int, tail: ColumnVector, load: bool = False
    ) -> bool:
        """Append ``tail`` — the table rows right after the promoted
        prefix of ``attr`` — onto the column's files (``load``: a tail
        converted whole to be loaded).

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
        self._count("vp_extends_total", load)
        return True

    def _count(self, name: str, load: bool) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc()
            if load:
                self.registry.counter("vp_loads_total").inc()

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
        if self.registry is not None:
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
        if self.registry is not None and dropped:
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
                "loaded": sorted(c.name for c in columns if c.loaded),
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
