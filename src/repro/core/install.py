"""What a scan learns, and its installation into the table's tiers.

As a side effect of reading, a :class:`repro.core.raw_scan.RawScan`
collects every field boundary it discovers ("it does not keep maps only
for the attributes requested in the query, but also for attributes
tokenized along the way") and every column it converts whole.  When it
ends — or is abandoned: the completed row prefix is valid —
:func:`harvest` turns them into an :class:`InstallPlan` and
:func:`install` applies it: map chunks, cache entries, the combination
chunk and columnstore promotions, charged to the ``nodb`` bucket of the
Figure 3 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..batch import ColumnVector
from .metrics import BreakdownComponent
from .positional_map import PositionalChunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raw_scan import RawScan

_NODB = BreakdownComponent.NODB


class Collector:
    """Accumulates a contiguous run of row blocks for installation: the
    converted vectors of one attribute (cache) or the tokenized offset
    matrices of one attribute span, ``attrs`` (positional map).

    ``benefit_seconds`` sums the measured time that produced the blocks
    — the conversion a future cache hit, or the tokenizing a future map
    jump, saves; the memory governor's benefit-per-byte eviction uses
    it.  A block that does not continue the run invalidates it.
    """

    __slots__ = (
        "attrs", "start_row", "next_row", "blocks", "valid", "benefit_seconds"
    )

    def __init__(self, start_row: int, attrs: tuple[int, ...] = ()) -> None:
        self.attrs = attrs
        self.start_row = start_row
        self.next_row = start_row
        self.blocks: list = []
        self.valid = True
        self.benefit_seconds = 0.0

    def add(self, row_from: int, block, seconds: float = 0.0) -> None:
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

    def materialize(self, concat: Callable):
        """The run as one block, joined by ``concat`` (``None`` if
        invalid or empty); the run keeps it as its only block."""
        if not self.valid or not self.blocks:
            return None
        if len(self.blocks) > 1:
            self.blocks = [concat(self.blocks)]
        return self.blocks[0]


class Collectors:
    """One scan's collectors: offsets per tokenized attribute span,
    converted vectors per attribute."""

    __slots__ = ("spans", "columns")

    def __init__(self) -> None:
        #: Keyed by the tokenized span ``(first, last)``.
        self.spans: dict[tuple[int, int], Collector] = {}
        self.columns: dict[int, Collector] = {}

    def add_span(
        self,
        first: int,
        last: int,
        n_attrs: int,
        lo: int,
        offsets: np.ndarray,
        seconds: float,
    ) -> None:
        """Tokenized ``offsets`` of ``first .. last`` from row ``lo``; the
        closing column starts the next attribute, if there is one."""
        include_sentinel = last + 1 < n_attrs
        collector = self.spans.get((first, last))
        if collector is None:
            attrs = tuple(
                range(first, last + 2 if include_sentinel else last + 1)
            )
            collector = self.spans[(first, last)] = Collector(lo, attrs)
        collector.add(
            lo, offsets if include_sentinel else offsets[:, :-1], seconds
        )

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
    installs it under the exclusive lock afterwards.  ``generation`` is
    the table state's generation at harvest time — installation is
    skipped if the file was rewritten in between (the offsets would
    describe a file that no longer exists).
    """

    n_rows: int
    generation: int
    #: ``(attrs, start_row, offset matrix, tokenize benefit seconds)``.
    spans: list[tuple[tuple[int, ...], int, np.ndarray, float]]
    #: The attribute-combination chunk plan (paper's default policy).
    combination: "tuple[tuple[int, PositionalChunk], ...] | None"
    #: ``(attr, start_row, vector, convert benefit seconds)``.
    columns: list[tuple[int, int, ColumnVector, float]]
    #: Attributes whose promoted column this plan may bring up to
    #: ``n_rows`` (see :func:`_promotions`).
    promotions: list[int] = field(default_factory=list)

    def empty(self) -> bool:
        return not (
            self.spans
            or self.columns
            or self.promotions
            or self.combination is not None
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
            generation=scan.state.generation,
            spans=[
                (c.attrs, c.start_row, matrix, c.benefit_seconds)
                for c in collectors.spans.values()
                if (matrix := c.materialize(np.vstack)) is not None
            ],
            combination=None if plan is None else plan.combination,
            columns=[
                (attr, c.start_row, vector, c.benefit_seconds)
                for attr, c in collectors.columns.items()
                if (vector := c.materialize(ColumnVector.concat)) is not None
            ],
        )
        result.promotions = _promotions(scan, result)
    collectors.clear()
    return result


def install(scan: "RawScan", plan: InstallPlan) -> None:
    """Apply an :class:`InstallPlan` to the shared adaptive state."""
    state, config = scan.state, scan.config
    if plan.generation != state.generation:
        return  # the raw file was rewritten mid-flight; offsets stale
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
                else:
                    existing = pm.peek(attrs)
                    if existing is not None and existing.rows == start_row:
                        pm.extend(existing, matrix, benefit_seconds=benefit)

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
                if start_row == 0:
                    cache.put(
                        attr,
                        vector,
                        protected=needed,
                        benefit_seconds=benefit,
                    )
                else:
                    entry = cache.peek(attr)
                    if entry is not None and entry.rows == start_row:
                        cache.extend(attr, vector)
    _maybe_promote(scan, plan)


def _promotions(scan: "RawScan", plan: InstallPlan) -> list[int]:
    """The needed attributes whose promoted column ``plan`` may bring
    up to its rows: used ``vp_min_accesses`` times, promoted short of
    them, and with the rows they lack at hand once the plan is
    installed (:func:`_maybe_promote` checks again)."""
    store = scan.state.columnstore
    if store is None:
        return []
    config = scan.config
    usage = scan.state.attribute_usage
    cache = scan.state.cache if config.enable_cache else None
    # Rows at hand: harvested up to the table's end from ``start``;
    # all of them when the cache (extended by the plan) reaches it.
    starts = {
        a: s for a, s, v, __ in plan.columns if s + len(v) == plan.n_rows
    }
    promotions = []
    for attr in scan.needed_attrs:
        start = starts.get(attr, plan.n_rows)
        if cache is not None and cache.coverage_rows(attr) >= start:
            start = 0
        if (
            usage.get(attr, 0) >= config.vp_min_accesses
            and start <= store.coverage_rows(attr) < plan.n_rows
        ):
            promotions.append(attr)
    return promotions


def _maybe_promote(scan: "RawScan", plan: InstallPlan) -> None:
    """Vertical persistence: bring hot columns' promoted prefixes up to
    the table's rows.

    Each of ``plan.promotions`` is written into the columnstore, where
    later scans read it without touching the raw file — when the rows
    it lacks are still at hand, converted by this very scan or resident
    in the cache.  A promoted prefix that an append left short is
    extended by the tail alone; the whole column is written for one
    never promoted, or whose files cannot take the tail in place.
    Charged to the ``nodb`` bucket like all adaptive-structure
    maintenance.
    """
    store = scan.state.columnstore
    for attr in plan.promotions:
        covered = store.coverage_rows(attr)
        if covered >= plan.n_rows:
            continue
        with scan.metrics.time(_NODB):
            if covered:
                tail = _rows_at_hand(scan, plan, attr, covered)
                if tail is None or store.extend(attr, tail[0]):
                    continue
            full = _rows_at_hand(scan, plan, attr, 0)
            if full is not None:
                column = scan.schema.columns[attr]
                store.promote(attr, column.name, column.dtype, *full)


def _rows_at_hand(
    scan: "RawScan", plan: InstallPlan, attr: int, lo: int
) -> tuple[ColumnVector, float] | None:
    """Rows ``[lo, plan.n_rows)`` of ``attr`` as ``(vector, convert
    benefit seconds)``: from this scan's harvest, else the cache."""
    for harvested, start_row, vector, benefit in plan.columns:
        if (
            harvested == attr
            and start_row <= lo
            and start_row + len(vector) == plan.n_rows
        ):
            return vector.slice(lo - start_row, len(vector)), benefit
    if scan.config.enable_cache:
        entry = scan.state.cache.peek(attr)
        if entry is not None and entry.rows >= plan.n_rows:
            return (
                entry.vector.slice(lo, plan.n_rows),
                entry.benefit_seconds,
            )
    return None
