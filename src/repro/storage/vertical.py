"""Vertical persistence: governed promotion of hot raw columns.

The NoDB-to-loaded continuum ("Workload-Driven Vertical Partitioning",
PAPERS.md): the workload itself nominates hot (table, column) pairs of a
raw table, and their already-converted vectors are written into the
on-disk columnstore (:mod:`repro.storage.columnstore`) as a *durable*
governed cache tier.  Later scans serve those columns straight from
binary storage — no raw-file I/O, no tokenizing, no parsing — while the
table stays registered in situ.

One :class:`VerticalStore` exists per raw table (when ``vp_enabled``).
It is a :class:`repro.service.governor.GovernedStructure` of kind
``"columnstore"``: promoted bytes are admitted through
``governor.grant`` against the same budget as positional-map chunks,
cache entries and materialized aggregates, and evict per column by
benefit-per-byte.  The governor's lock is the store's only lock, so a
grant that evicts a column and a scan that reads or extends it are
serialized by one mutex.

A promoted column covers a row *prefix* of its table (``rows`` is its
watermark).  An append leaves it valid: scans read the prefix from the
columnstore and only the new tail from the raw file, and
:meth:`VerticalStore.extend` then appends that tail onto the column's
files in O(tail) bytes.  Rewrites and drops invalidate the whole store.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..batch import ColumnVector
from ..catalog.schema import Column, TableSchema
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
    last_used: int = 0
    last_used_ts: float = field(default_factory=time.monotonic)
    hits: int = 0


class VerticalStore:
    """Per-table columnstore tier holding promoted hot columns."""

    def __init__(
        self, table: str, root: str | Path, governor, registry=None
    ) -> None:
        self.table = table
        self.root = Path(root)
        self.registry = registry
        self._governor = governor
        # The governor's reentrant lock: grant-triggered evictions
        # re-enter this store without a second lock to order against.
        self.lock = governor.lock
        self._columns: dict[int, PromotedColumn] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    # GovernedStructure protocol.
    # ------------------------------------------------------------------

    def governed_bytes(self) -> int:
        with self.lock:
            return sum(c.nbytes for c in self._columns.values())

    def governed_items(self):
        with self.lock:
            return [
                (
                    c.attr,
                    c.nbytes,
                    (c.benefit_seconds / c.nbytes) if c.nbytes else 0.0,
                    c.last_used,
                    c.last_used_ts,
                )
                for c in self._columns.values()
            ]

    def governed_evict(self, token: object) -> int:
        with self.lock:
            column = self._columns.pop(token, None)
            if column is None:
                return 0
            shutil.rmtree(column.store.directory, ignore_errors=True)
            return column.nbytes

    # ------------------------------------------------------------------
    # Promotion / serving.
    # ------------------------------------------------------------------

    def coverage_rows(self, attr: int) -> int:
        with self.lock:
            column = self._columns.get(attr)
            return column.rows if column is not None else 0

    def promote(
        self,
        attr: int,
        name: str,
        dtype: DataType,
        vector: ColumnVector,
        benefit_seconds: float,
    ) -> bool:
        """Write one converted column into the columnstore tier.

        Bytes are measured from the files actually written, then
        admitted through the governor (which may evict other governed
        structures — or refuse, in which case the files are removed
        again).  The files are written beside those of an earlier
        promotion of the same column and swapped in once admitted, so a
        refusal keeps the old prefix.  Returns whether the new column
        is now resident.
        """
        directory = self.root / f"{self.table}-{attr}-{name}"
        staging = directory.with_name(directory.name + ".new")
        schema = TableSchema([Column(name, dtype)])
        # Zone maps are skipped: this tier is a cache serving row
        # ranges, not a block-skipping scan target.
        nbytes = ColumnStoreTable.create(
            staging, schema, {name: vector}, build_zone_maps=False
        ).storage_bytes()
        with self.lock:
            if not self._governor.grant(self, nbytes):
                shutil.rmtree(staging, ignore_errors=True)
                return False
            shutil.rmtree(directory, ignore_errors=True)
            staging.rename(directory)
            self._clock += 1
            self._columns[attr] = PromotedColumn(
                attr=attr,
                name=name,
                dtype=dtype,
                store=ColumnStoreTable(directory, schema),
                rows=len(vector),
                nbytes=nbytes,
                benefit_seconds=benefit_seconds,
                last_used=self._clock,
            )
        if self.registry is not None:
            self.registry.counter("vp_promotions_total").inc()
        return True

    def extend(self, attr: int, tail: ColumnVector) -> bool:
        """Append ``tail`` — the table rows right after the promoted
        prefix of ``attr`` — onto the column's files.

        Costs O(tail) bytes of I/O; the added bytes are admitted
        through the governor first.  ``False`` (the column keeps its
        old prefix) when it refuses, when the column is not resident,
        or when the files cannot take the tail as they are — a TEXT
        value wider than the stored width; a full :meth:`promote`
        covers that case.
        """
        # Under the governor's lock no grant elsewhere can evict the
        # column while its files are being appended to; the growing
        # column itself is protected from its own grant.
        with self.lock:
            column = self._columns.get(attr)
            if column is None:
                return False
            added = column.store.extend(
                {column.name: tail},
                lambda nbytes: self._governor.grant(self, nbytes, {attr}),
            )
            if not added:
                return False
            column.rows += len(tail)
            column.nbytes += added
        if self.registry is not None:
            self.registry.counter("vp_extends_total").inc()
        return True

    def read(
        self,
        attr: int,
        name: str,
        lo: int,
        hi: int,
        sel: np.ndarray | None,
        metrics,
    ) -> ColumnVector:
        """Serve rows [lo, hi) (or the ``sel`` subset) of one column.

        mmap loads are charged to the ``io`` bucket by the columnstore
        itself; the raw file is never touched.
        """
        with self.lock:
            column = self._columns[attr]
            self._clock += 1
            column.last_used = self._clock
            column.last_used_ts = time.monotonic()
            column.hits += 1
        if self.registry is not None:
            self.registry.counter("vp_served_total").inc()
        index = sel if sel is not None else slice(lo, hi)
        return column.store._vector(name, index, metrics)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def invalidate(self) -> int:
        """Rewrite/drop: the promoted prefixes describe another file."""
        with self.lock:
            dropped = len(self._columns)
            for column in self._columns.values():
                shutil.rmtree(column.store.directory, ignore_errors=True)
            self._columns.clear()
        if self.registry is not None and dropped:
            self.registry.counter("vp_invalidations_total").inc(dropped)
        return dropped

    def stats(self, table_rows: int | None = None) -> dict[str, object]:
        """``table_rows``: the table's reconciled row count, when known
        (a column's ``lag_rows`` is how far its watermark trails it)."""
        with self.lock:
            return {
                "table": self.table,
                "columns": sorted(c.name for c in self._columns.values()),
                "nbytes": sum(c.nbytes for c in self._columns.values()),
                "hits": sum(c.hits for c in self._columns.values()),
                "rows": {c.name: c.rows for c in self._columns.values()},
                "lag_rows": {
                    c.name: (
                        None
                        if table_rows is None
                        else max(table_rows - c.rows, 0)
                    )
                    for c in self._columns.values()
                },
            }
