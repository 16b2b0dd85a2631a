"""What a scan learns, and its installation into the table's tiers.

As a side effect of reading, a :class:`repro.core.raw_scan.RawScan`
collects every field boundary it discovers ("it does not keep maps only
for the attributes requested in the query, but also for attributes
tokenized along the way") and every column it converts whole.  A
stride tokenizes each window once, over every attribute it tokenizes at
all, so the map learns one chunk per tokenized span.  The tokenizer
writes each window's offsets in place, into the span's matrix
(:class:`SpanCollector`), allocated once for the rows the scan covers:
no per-window block is kept or joined.  Converted columns are
collected per window and joined once (:class:`Collector`).  When the
scan ends — or is abandoned: the completed row prefix is valid, and a
prefix of a span's matrix is copied out — :func:`harvest` turns them
into an :class:`InstallPlan` and :func:`install` applies it: map
chunks, cache entries, the combination chunk, columnstore loads and
tails, charged to the ``nodb`` bucket of the Figure 3 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..batch import ColumnVector
from .metrics import BreakdownComponent
from .positional_map import PositionalChunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raw_scan import RawScan

_NODB = BreakdownComponent.NODB


class Collector:
    """Accumulates the converted vectors of one attribute over a
    contiguous run of row blocks, for the cache (or the columnstore).

    ``benefit_seconds`` sums the measured conversion time that produced
    the blocks — what a future cache hit saves; the memory governor's
    benefit-per-byte eviction uses it.  A block that does not continue
    the run invalidates it.
    """

    __slots__ = ("start_row", "next_row", "blocks", "valid", "benefit_seconds")

    def __init__(self, start_row: int) -> None:
        self.start_row = start_row
        self.next_row = start_row
        self.blocks: list[ColumnVector] = []
        self.valid = True
        self.benefit_seconds = 0.0

    def add(self, row_from: int, block: ColumnVector, seconds: float) -> None:
        if not self.valid:
            return
        if row_from != self.next_row:
            self.invalidate()
            return
        self.blocks.append(block)
        self.benefit_seconds += seconds
        self.next_row += len(block)

    def invalidate(self) -> None:
        self.valid = False
        self.blocks.clear()

    def materialize(self) -> ColumnVector | None:
        """The run as one vector (``None`` if invalid or empty)."""
        if not self.valid or not self.blocks:
            return None
        if len(self.blocks) > 1:
            self.blocks = [ColumnVector.concat(self.blocks)]
        return self.blocks[0]


class SpanCollector:
    """The offsets of one tokenized attribute span, ``attrs``, over a
    contiguous run of rows, for the positional map.

    The matrix is allocated once, for every row from ``start_row`` to
    the end of the scan, and the tokenizer writes each window's offsets
    straight into its rows (:meth:`rows`): the run is never copied or
    joined.  ``benefit_seconds`` sums the tokenizing time that found
    them — what a future map jump saves.  Rows that do not continue the
    run invalidate it.
    """

    __slots__ = (
        "attrs", "start_row", "next_row", "matrix", "valid", "benefit_seconds"
    )

    def __init__(
        self, attrs: tuple[int, ...], start_row: int, row_to: int
    ) -> None:
        self.attrs = attrs
        self.start_row = start_row
        self.next_row = start_row
        self.matrix: np.ndarray | None = np.empty(
            (row_to - start_row, len(attrs)), dtype=np.int64
        )
        self.valid = True
        self.benefit_seconds = 0.0

    def rows(self, lo: int, hi: int) -> np.ndarray | None:
        """The matrix rows to write rows ``[lo, hi)`` into, or ``None``
        (the run invalid) when they do not continue the run."""
        if self.valid and lo != self.next_row:
            self.invalidate()
        if not self.valid:
            return None
        return self.matrix[lo - self.start_row : hi - self.start_row]

    def filled(self, hi: int, seconds: float) -> None:
        """The rows up to ``hi`` are written, in ``seconds``."""
        if self.valid:
            self.next_row = hi
            self.benefit_seconds += seconds

    def invalidate(self) -> None:
        self.valid = False
        self.matrix = None

    def materialize(self) -> np.ndarray | None:
        """The written rows (``None`` if invalid or empty).  A scan that
        stopped early (a ``LIMIT``) wrote only a prefix: it is copied
        out, so the chunk holds exactly the bytes it is charged for."""
        written = self.next_row - self.start_row
        if not self.valid or not written:
            return None
        if written < len(self.matrix):
            return self.matrix[:written].copy()
        return self.matrix


class Collectors:
    """One scan's collectors: offsets per tokenized attribute span,
    converted vectors per attribute."""

    __slots__ = ("spans", "columns")

    def __init__(self) -> None:
        #: Keyed by the tokenized span ``(first, last)``.
        self.spans: dict[tuple[int, int], SpanCollector] = {}
        self.columns: dict[int, Collector] = {}

    def span(
        self, first: int, last: int, n_attrs: int, lo: int, row_to: int
    ) -> SpanCollector:
        """The collector of span ``first .. last``, created at row
        ``lo``: its matrix holds the span's columns and, if there is a
        next attribute, that attribute's start (the span's end)."""
        collector = self.spans.get((first, last))
        if collector is None:
            stop = last + 2 if last + 1 < n_attrs else last + 1
            collector = self.spans[(first, last)] = SpanCollector(
                tuple(range(first, stop)), lo, row_to
            )
        return collector

    def add_column(
        self, attr: int, lo: int, vector: ColumnVector, seconds: float
    ) -> None:
        collector = self.columns.get(attr)
        if collector is None:
            collector = self.columns[attr] = Collector(lo)
        collector.add(lo, vector, seconds)

    def clear(self) -> None:
        self.spans.clear()
        self.columns.clear()


@dataclass
class InstallPlan:
    """Everything one scan learned, materialized and ready to install.

    Produced by :func:`harvest` when the scan finishes; consumed by
    :func:`install`.  The split exists for the concurrent service's
    read path: a query served entirely by existing structures runs
    under a shared lock and hands its plan to the service, which
    installs it under the exclusive lock afterwards, unless the file
    was rewritten or dropped in between (the offsets would describe a
    file that no longer exists).
    """

    n_rows: int
    #: ``(attrs, start_row, offset matrix, tokenize benefit seconds)``.
    spans: list[tuple[tuple[int, ...], int, np.ndarray, float]]
    #: The attribute-combination chunk plan (paper's default policy).
    combination: "tuple[tuple[int, PositionalChunk], ...] | None"
    #: ``(attr, start_row, vector, convert benefit seconds)``.
    columns: list[tuple[int, int, ColumnVector, float]]
    #: The scan's ``load_attrs``: their ``columns`` go to the
    #: columnstore only, never the cache.
    loads: tuple[int, ...] = ()

    def empty(self) -> bool:
        return not (
            self.spans or self.columns or self.combination is not None
        )


def harvest(scan: "RawScan", n_rows: int) -> InstallPlan:
    """Materialize ``scan``'s collectors (emptying them) into the plan
    of what to install."""
    collectors = scan.collectors
    plan = scan.plan
    scan.metrics.collector_invalidations += sum(
        not c.valid
        for runs in (collectors.spans, collectors.columns)
        for c in runs.values()
    )
    with scan.metrics.time(_NODB):
        result = InstallPlan(
            n_rows=n_rows,
            spans=[
                (c.attrs, c.start_row, matrix, c.benefit_seconds)
                for c in collectors.spans.values()
                if (matrix := c.materialize()) is not None
            ],
            combination=None if plan is None else plan.combination,
            loads=() if plan is None else plan.load_attrs,
            columns=[
                (attr, c.start_row, vector, c.benefit_seconds)
                for attr, c in collectors.columns.items()
                if (vector := c.materialize()) is not None
            ],
        )
    collectors.clear()
    return result


def install(scan: "RawScan", plan: InstallPlan) -> None:
    """Apply an :class:`InstallPlan` to the shared adaptive state."""
    state, config = scan.state, scan.config
    pm = state.positional_map
    cache = state.cache
    with scan.metrics.time(_NODB):
        if config.enable_positional_map:
            # Scans are built per query: map chunks touched since are
            # this query's working set, which its installs must not
            # evict.
            protected = {
                c.attrs
                for c in pm.entries()
                if c.last_used_ts >= scan.started_ts
            }
            for attrs, start_row, matrix, benefit in plan.spans:
                if start_row == 0:
                    pm.install(
                        attrs, matrix, protected, benefit_seconds=benefit
                    )
                    continue
                # A tail extends every chunk it continues, with the
                # columns of the chunk's attributes.
                column_of = {attr: i for i, attr in enumerate(attrs)}
                for chunk in pm.entries():
                    if chunk.rows == start_row and all(
                        a in column_of for a in chunk.attrs
                    ):
                        share = len(chunk.attrs) / len(attrs)
                        pm.extend(
                            chunk,
                            matrix[:, [column_of[a] for a in chunk.attrs]],
                            benefit_seconds=benefit * share,
                        )

            if plan.combination is not None:
                columns = []
                attrs = []
                for attr, chunk in plan.combination:
                    columns.append(
                        chunk.offsets[: plan.n_rows, chunk.column_of(attr)]
                    )
                    attrs.append(attr)
                matrix = np.column_stack(columns)
                pm.install(tuple(attrs), matrix, protected)

        if config.enable_cache:
            needed = set(scan.needed_attrs)
            for attr, start_row, vector, benefit in plan.columns:
                if attr in plan.loads:
                    continue  # one binary copy: the columnstore's
                if start_row == 0:
                    if cache.put(
                        attr,
                        vector,
                        protected=needed,
                        benefit_seconds=benefit,
                    ):
                        state.reset_rent(attr)  # no load to buy now
                else:
                    entry = cache.peek(attr)
                    if entry is not None and entry.rows == start_row:
                        cache.extend(attr, vector)
    _maybe_promote(scan, plan)


def _maybe_promote(scan: "RawScan", plan: InstallPlan) -> None:
    """Vertical persistence: write the plan's loads (``plan.loads``)
    into the columnstore, where later scans read them without touching
    the raw file, and extend each promoted column by the rows this scan
    converted right after its prefix — as cache entries and map chunks
    take a tail.  A column the columnstore does not hold enters it only
    by a load.  The rent toward a load starts over once the column is
    written, and after a load whether admitted or not.  Charged to the
    ``nodb`` bucket like all adaptive-structure maintenance.
    """
    store = scan.state.columnstore
    if store is None:
        return
    for attr, start_row, vector, benefit in plan.columns:
        load = attr in plan.loads
        covered = store.coverage_rows(attr)
        if not (load or covered):
            continue
        with scan.metrics.time(_NODB):
            written = _promote(scan, attr, covered, start_row, vector, benefit)
        if written or load:
            scan.state.reset_rent(attr)


def _promote(
    scan: "RawScan",
    attr: int,
    covered: int,
    start_row: int,
    vector: ColumnVector,
    benefit: float,
) -> bool:
    """Write the rows of ``vector`` (``attr`` from ``start_row``) past
    the ``covered`` rows of its promoted prefix; whether it took them."""
    if not start_row <= covered < start_row + len(vector):
        return False
    if covered:
        tail = vector.slice(covered - start_row, len(vector))
        return scan.state.columnstore.extend(attr, tail)
    column = scan.schema.columns[attr]
    return scan.state.columnstore.promote(
        attr, column.name, column.dtype, vector, benefit
    )
