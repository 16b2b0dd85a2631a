"""The PostgresRaw scan operator (paper §3).

"PostgresRaw overrides the scan operator with the ability to access raw
data files directly, while the rest of the query plan, generated by the
optimizer, works without any changes compared to a conventional DBMS."

:class:`RawScan` is that operator.  It obtains each needed attribute
through the cheapest available source, one ladder per attribute:

1. **cache** — binary values already converted by an earlier query
   (no I/O, no tokenizing, no parsing, no conversion);
2. **columnstore** — a promoted column (vertical persistence): binary
   values mapped from disk, no raw-file access;
3. **positional map** — jump straight to the recorded field offset and
   parse just that field (no tokenizing);
4. **anchored tokenizing** — start at the nearest mapped attribute at or
   before the needed one and tokenize only the intervening fields
   ("jump ... as close as possible");
5. **plain selective tokenizing** — from the start of the tuple, stopping
   at the last needed attribute.

The first three rungs are the table's tiers (:attr:`RawTableState.tiers`),
each resolved when the scan plans: per row segment and attribute the
first tier covering it is *pinned* and read from, so an eviction while
the scan runs neither raises nor changes the answer.

As a side effect it populates the positional map with every boundary it
discovers ("it does not keep maps only for the attributes requested in
the query, but also for attributes tokenized along the way"), feeds
converted columns to the cache and streams values into the statistics
store — map/cache/statistics maintenance is charged to the ``nodb``
bucket of the Figure 3 breakdown.

**Selective tuple formation** is two-phase row assembly: predicate
columns are materialized first, the filter runs, and the remaining
projected columns are *converted only for qualifying rows* — "tuples are
only created after the select operator".  The filter runs once per
*stride* of rows.  The first stride is the first batch, so the first
batch leaves as early as a per-batch scan's would.  A scan is
**resident** when it has a predicate and every segment it covers pinned
all the predicate's attributes in a binary tier (cache or columnstore)
and has no needed attribute left to tokenize.  A resident scan doubles each
later stride, up to :data:`MAX_STRIDE_BATCHES` batches: one acquisition
of the predicate columns, one mask and one selection vector per stride.
Columns the cache or columnstore hold are taken once per stride for the
survivors.  When those are all the scan needs, survivors leave in
batches of up to ``batch_size`` rows.  Otherwise each ``batch_size``
input window with survivors is one batch, and the other columns are
map-jumped per window, for its survivors only (all of a window's rows
when every one qualifies, so the cache and statistics still collect
them).  Any other scan steps one batch at a time: tokenization of a
batch stays full-width for the attributes the query touches (that is
what populates the map), even when no row of it qualifies.  Rows always
leave in file order.

**Window skipping.**  Cache entries and promoted columns of INTEGER,
FLOAT and DATE columns carry a synopsis — per ``batch_size`` window
min / max / NULL count (:mod:`repro.core.synopsis`) — and the scan
tests the predicate's ``col op literal`` / ``BETWEEN`` / ``IN``
conjuncts against it when it plans.  It skips a window that cannot
qualify only where reading it would learn nothing: every segment the
window overlaps pins all predicate attributes in a binary tier and has
nothing to tokenize, and selective tuple formation is on (so a window
without survivors converts, collects and observes nothing).  A skipped
window is neither acquired, masked nor read, so no tier, statistic or
answer changes — only time, and ``metrics.windows_skipped``.  Strides
restart at one batch for each run of kept windows.

Coverage bookkeeping: cache entries, promoted columns and positional
chunks always cover a row *prefix*.  After an external append the old
prefix stays valid and scans stitch the new tail from the raw file,
extending the structures in place.

**Raw access is by byte range.**  Every offset the scan holds is a byte
offset into the raw file, and it reads only the ranges its plan needs:
the whole file once while the line index is unknown, ``[old end,
size)`` after an append (from the last known record's terminator
on), and otherwise — per batch window — the one range from the first
to the last row that needs a jump or tokenizing (nothing when no row
qualifies).  See :mod:`repro.rawio.reader`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ..batch import Batch, ColumnVector
from ..catalog.catalog import RawTableEntry
from ..config import (
    DEFAULT_HISTOGRAM_BUCKETS,
    DEFAULT_STATS_SAMPLE_SIZE,
    PostgresRawConfig,
)
from ..datatypes import DataType
from ..errors import ExecutionError, RawDataError
from ..executor.expressions import predicate_mask
from ..executor.operators import Operator
from ..kernels import ContentBuffer, convert_span, make_signature
from ..kernels.cache import process_cache
from ..kernels.kernel import KernelRows
from ..rawio.reader import RawFileReader
from ..rawio.tokenizer import TokenizedRows, has_crlf, trim_cr
from ..sql.ast import Expression, expr_column_refs
from ..storage.vertical import VerticalStore
from .cache import RawDataCache
from .ledger import now
from .metrics import BreakdownComponent, QueryMetrics
from .positional_map import PositionalChunk, PositionalMap
from .stats import StatisticsStore
from .synopsis import column_intervals

_IO = BreakdownComponent.IO
_TOKENIZING = BreakdownComponent.TOKENIZING
_PARSING = BreakdownComponent.PARSING
_CONVERT = BreakdownComponent.CONVERT
_NODB = BreakdownComponent.NODB

#: Zero-argument conversion of one attribute's located fields to a
#: :class:`ColumnVector` — built where the fields are found, run (and
#: timed) by ``_acquire_attr_part``.
_Converter = Callable[[], ColumnVector]

#: Types ``convert_span`` converts from byte bounds on the kernel path.
_KERNEL_TYPES = frozenset({DataType.INTEGER, DataType.FLOAT, DataType.TEXT})


#: A resident scan's selection stride doubles from one batch up to this
#: many batches, so a stride's temporaries stay bounded on big tables.
MAX_STRIDE_BATCHES = 64


class RawTableState:
    """All adaptive state PostgresRaw keeps for one registered raw file.

    Everything here is a *side effect of queries*: it starts empty
    ("zero initialization overhead") and is built, refined and evicted
    as the workload evolves.  It owns the table's governed tiers —
    ``positional_map``, ``cache`` and, with ``vp_enabled``,
    ``columnstore`` (files under ``vp_root``) — and its statistics.
    ``governor`` admits every byte the tiers hold; a parallel scan
    worker's chunk-local state passes ``None`` and has no columnstore
    (it only adopts chunks and takes line bounds — what it learns is
    installed into the engine's state).
    """

    def __init__(
        self,
        entry: RawTableEntry,
        config: PostgresRawConfig,
        governor,
        vp_root: Path | None = None,
        registry=None,
    ) -> None:
        self.entry = entry
        self.config = config
        self.positional_map = PositionalMap(
            governor, config.pm_combination_policy
        )
        # Synopsis windows are the scan's windows.
        self.cache = RawDataCache(governor, config.batch_size)
        self.columnstore: VerticalStore | None = None
        if config.vp_enabled and governor is not None:
            self.columnstore = VerticalStore(
                entry.name, vp_root, governor, registry, config.batch_size
            )
        #: The ladder's tiers, cheapest read first (each when enabled).
        self.tiers: list = []
        if config.enable_cache:
            self.tiers.append(self.cache)
        if self.columnstore is not None:
            self.tiers.append(self.columnstore)
        if config.enable_positional_map:
            self.tiers.append(self.positional_map)
        self.statistics = StatisticsStore(
            DEFAULT_STATS_SAMPLE_SIZE, DEFAULT_HISTOGRAM_BUCKETS
        )
        self.fingerprint = None
        self.pending_append = False
        self.queries_executed = 0
        self.attribute_usage: dict[int, int] = {}
        #: Bumped on invalidation so deferred installs (read-path queries
        #: installing under the write lock *after* their scan) can detect
        #: that their harvested offsets describe a file that no longer
        #: exists.
        self.generation = 0
        self._usage_lock = threading.Lock()

    def begin_query(self) -> None:
        self.queries_executed += 1

    def record_usage(self, attrs: list[int]) -> None:
        with self._usage_lock:
            for attr in attrs:
                self.attribute_usage[attr] = (
                    self.attribute_usage.get(attr, 0) + 1
                )

    def table_rows(self) -> int | None:
        """Rows as last reconciled; ``None`` while unknown (no line
        index kept, or an append not indexed yet)."""
        pm = self.positional_map
        if self.pending_append or pm.line_bounds is None:
            return None
        return pm.n_rows

    def coverage_rows(self, attr: int, tiers=None) -> int:
        """The deepest row prefix of ``attr`` one of ``tiers`` (default:
        the whole ladder) holds."""
        tiers = self.tiers if tiers is None else tiers
        return max((tier.coverage_rows(attr) for tier in tiers), default=0)

    def covers(self, attrs: list[int], tiers=None) -> bool:
        """Do ``tiers`` (default: the whole ladder) hold every row of
        each of ``attrs``?  A scan they cover discovers nothing about
        the file.  ``False`` while the table's rows are unknown."""
        n_rows = self.table_rows()
        return n_rows is not None and all(
            self.coverage_rows(attr, tiers) >= n_rows for attr in attrs
        )

    def invalidate(self) -> None:
        """The raw file was rewritten, or the table is dropped or its
        engine closed: drop every tier and the statistics."""
        self.generation += 1
        self.positional_map.invalidate()
        self.cache.invalidate()
        if self.columnstore is not None:
            self.columnstore.invalidate()
        self.statistics.invalidate()
        self.pending_append = False


@dataclass
class _Segment:
    """A row range over which every attribute has one acquisition source,
    pinned when the scan planned."""

    start: int
    end: int
    #: Binary tiers: attribute -> ``(tier, entry)``, the cache entry or
    #: the promoted column (arrays mapped) ``tier.read`` serves it from.
    resident: dict[int, tuple] = field(default_factory=dict)
    chunk_hits: dict[int, PositionalChunk] = field(default_factory=dict)
    tokenize_attrs: set[int] = field(default_factory=set)


class _Collector:
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
            self.valid = False
            self.blocks.clear()
            return
        self.blocks.append(block)
        self.benefit_seconds += seconds
        self.next_row += len(block)

    def materialize(self, concat: Callable):
        """The run as one block, joined by ``concat`` (``None`` if
        invalid or empty)."""
        if not self.valid or not self.blocks:
            return None
        return self.blocks[0] if len(self.blocks) == 1 else concat(self.blocks)


def _held(segments: list[_Segment], attrs: list[int]) -> bool:
    """Is every attribute of ``attrs`` pinned in a binary tier in every
    segment?"""
    return all(a in seg.resident for seg in segments for a in attrs)


def _empty_vector(dtype: DataType) -> ColumnVector:
    return ColumnVector(
        dtype,
        np.zeros(0, dtype=dtype.numpy_dtype),
        np.zeros(0, dtype=np.bool_),
    )


@dataclass
class InstallPlan:
    """Everything one scan learned, materialized and ready to install.

    Produced by :meth:`RawScan._harvest` when the scan finishes; consumed
    by :meth:`RawScan._install`.  The split exists for the concurrent
    service's read path: a query served entirely by existing structures
    runs under a shared lock and hands its plan to the service, which
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
    combination: "list[tuple[int, PositionalChunk]] | None"
    #: ``(attr, start_row, vector, convert benefit seconds)``.
    columns: list[tuple[int, int, ColumnVector, float]]
    #: Attributes whose promoted column this plan may bring up to
    #: ``n_rows`` (see :meth:`RawScan._promotions`).
    promotions: list[int] = field(default_factory=list)

    def empty(self) -> bool:
        return not (
            self.spans
            or self.columns
            or self.promotions
            or self.combination is not None
        )


class RawScan(Operator):
    """In-situ scan over one raw CSV file."""

    def __init__(
        self,
        state: RawTableState,
        metrics: QueryMetrics,
        output_columns: list[str],
        predicate: Expression | None = None,
        config: PostgresRawConfig | None = None,
        pool=None,
        row_from: int = 0,
    ) -> None:
        self.state = state
        self.config = config or state.config
        self.metrics = metrics
        #: The scan covers table rows ``[row_from, row_to)``: from the
        #: row it was asked to start at (an MV's watermark; 0 otherwise)
        #: to the end of the line index it ran against — ``None`` until
        #: that is known.
        self.row_from = row_from
        self.row_to: int | None = None
        #: Engine-owned persistent scan pool (repro.parallel) — when set,
        #: parallel dispatches reuse it across queries instead of forking
        #: a fresh pool per scan.
        self.pool = pool
        #: When set (the service's shared-lock read path), the finished
        #: scan hands its :class:`InstallPlan` here instead of installing
        #: into the shared structures itself.
        self._install_sink: Callable[["RawScan", InstallPlan], None] | None = (
            None
        )
        self.schema = state.entry.schema
        self._dtypes = tuple(c.dtype for c in self.schema.columns)
        self.dialect = state.entry.dialect
        #: The table's format adapter — all tokenizing geometry
        #: (line index, span tokenizing, warm map jumps, kernel
        #: eligibility) routes through it.
        self.adapter = state.entry.adapter
        self.output_columns = list(output_columns)
        self.predicate = predicate

        self._pred_columns: list[str] = []
        if predicate is not None:
            seen: set[str] = set()
            for ref in expr_column_refs(predicate):
                if ref.key not in seen:
                    seen.add(ref.key)
                    if not self.schema.has_column(ref.key):
                        raise ExecutionError(
                            f"predicate references unknown column {ref.key!r}"
                        )
                    self._pred_columns.append(ref.key)
        needed = list(dict.fromkeys(self._pred_columns + self.output_columns))
        self.needed_attrs = sorted(self.schema.positions(needed))
        self._attr_name = {self.schema.position(n): n for n in needed}
        self._out_attrs = set(self.schema.positions(self.output_columns))
        #: ``(attr, intervals)`` per conjunct a synopsis can test.
        self._prunable = [
            (self.schema.position(name), intervals)
            for name, intervals in column_intervals(predicate)
        ]

        #: The engine-owned :class:`repro.kernels.KernelCache`, set by
        #: the service's scan factory.  Unset (bare scans, parallel
        #: workers after the pickle boundary) the per-process fallback
        #: cache is used instead — see :func:`repro.kernels.process_cache`.
        self.kernel_cache = None
        self._kcache_resolved = False
        self._kcache = None

        # Per-execution state.  The scan never holds "the file": it
        # holds the window the line index was learned from (the whole
        # file when cold, the appended tail, nothing when warm) and the
        # window the current batch's rows were read into.
        self._reader: RawFileReader | None = None
        self._index_window: ContentBuffer | None = None
        self._batch_window: ContentBuffer | None = None
        self._bounds: np.ndarray | None = None
        self._crlf = False
        self._cache_collectors: dict[int, _Collector] = {}
        self._span_collectors: dict[tuple[int, int], _Collector] = {}
        self._combination_plan: list[tuple[int, PositionalChunk]] | None = None
        # Spans tokenized for the current batch, reusable as anchors by
        # later acquisitions over the same rows (phase B after phase A).
        self._batch_spans: list[tuple[int, int, TokenizedRows]] = []
        # Scans are built per query: map chunks touched since are this
        # query's working set, which its own installs must not evict.
        self._started_ts = now()

    # ------------------------------------------------------------------
    # Operator interface.
    # ------------------------------------------------------------------

    def output_types(self) -> dict[str, DataType]:
        return {
            name: self.schema.dtype_of(name) for name in self.output_columns
        }

    def describe(self) -> str:
        from ..sql.ast import expr_to_sql

        pred = (
            f" filter: {expr_to_sql(self.predicate)}" if self.predicate else ""
        )
        fmt = self.state.entry.format
        fmt_tag = f"[{fmt}]" if fmt != "csv" else ""
        rows = f" from row {self.row_from}" if self.row_from else ""
        text = (
            f"RawScan({self.state.entry.name}{fmt_tag}{rows} -> "
            f"{', '.join(self.output_columns)}{pred})"
        )
        columnstore = self.state.columnstore
        if (
            columnstore is not None
            and self.needed_attrs
            and self.state.covers(self.needed_attrs, [columnstore])
        ):
            text += "\n-- vp: served from columnstore"
        return text

    def execute(self) -> Iterator[Batch]:
        try:
            yield from self._execute()
        finally:
            if self._reader is not None:
                self._reader.close()
                self._reader = None
            self._index_window = self._batch_window = None

    def _execute(self) -> Iterator[Batch]:
        state = self.state
        state.record_usage(self.needed_attrs)
        driver = self._parallel_driver()
        if driver is not None and driver.cold_eligible():
            # Nothing is known about the file yet: chunk it by byte
            # ranges and let the pool build the line index, tokenize and
            # convert concurrently (repro.parallel).
            yield from driver.run_cold()
            return
        n_rows = self.row_to = self._ensure_bounds()
        if self.config.enable_statistics:
            state.statistics.set_row_estimate(n_rows)
        segments = self._plan_segments(n_rows)
        self._plan_combination(n_rows)

        batch_size = self.config.batch_size
        pred_attrs = sorted(self.schema.positions(self._pred_columns))
        pred_set = set(pred_attrs)
        proj_only = [a for a in self.needed_attrs if a not in pred_set]

        tail_from = None
        if driver is not None:
            # Partially-mapped scan: rows [0, tail_from) are served by
            # the adaptive structures below; the fully-unmapped tail is
            # fanned out over the pool at batch-aligned row cuts.
            tail_from = driver.tail_start(segments, n_rows)

        try:
            if tail_from is not None:
                yield from self._scan_batches(
                    segments, tail_from, batch_size, pred_attrs, proj_only
                )
                yield from driver.run_tail(tail_from, n_rows)
            else:
                yield from self._scan_batches(
                    segments, n_rows, batch_size, pred_attrs, proj_only
                )
        finally:
            # Runs even when a LIMIT above abandons the scan early: the
            # offsets/values collected so far form a valid row prefix and
            # are installed, so partial scans still teach the engine.
            self._finalize(n_rows)

    def _parallel_driver(self):
        """The chunked scan-pool driver, or ``None`` on the serial path.

        ``scan_workers=1`` is the degenerate case: no driver is built and
        the scan below is byte-for-byte the original serial code.
        """
        if self.config.scan_workers <= 1:
            return None
        from ..parallel.driver import ParallelScanDriver

        return ParallelScanDriver(self)

    def _scan_batches(
        self,
        segments: list[_Segment],
        row_to: int,
        batch_size: int,
        pred_attrs: list[int],
        proj_only: list[int],
    ) -> Iterator[Batch]:
        # Strides and windows cut on table-wide ``batch_size`` multiples
        # when the scan starts mid-table, as the pool's row cuts do.  The
        # first stride of each run of kept windows is its first batch; a
        # resident scan doubles each later one, any other scan steps one
        # batch at a time.
        covered = [seg for seg in segments if seg.start < row_to]
        resident = self._resident(covered, pred_attrs)
        held = [a for a in proj_only if resident and _held(covered, [a])]
        jumped = [a for a in proj_only if a not in held]
        max_stride = batch_size * (MAX_STRIDE_BATCHES if resident else 1)
        runs = self._kept_runs(covered, pred_attrs, row_to, batch_size)
        if not runs:
            # Every window was ruled out: evaluate over no rows, so a
            # predicate the evaluator rejects still raises.
            empty = {
                self._attr_name[a]: _empty_vector(self._dtypes[a])
                for a in pred_attrs
            }
            predicate_mask(self.predicate, Batch(empty, num_rows=0))
        for r0, r1 in runs:
            stride = batch_size
            s0, s1 = r0, r0 - r0 % batch_size + batch_size
            while s0 < r1:
                s1 = min(s1, r1)
                yield from self._select_stride(
                    segments,
                    s0,
                    s1,
                    batch_size,
                    pred_attrs,
                    held,
                    jumped,
                    resident,
                )
                stride = min(2 * stride, max_stride)
                s0, s1 = s1, s1 + stride

    def _kept_runs(
        self,
        segments: list[_Segment],
        pred_attrs: list[int],
        row_to: int,
        batch_size: int,
    ) -> list[tuple[int, int]]:
        """The row ranges ``[r0, r1)`` the scan reads: ``[row_from,
        row_to)`` less the ``batch_size`` windows the predicate's
        synopses rule out (counted in ``metrics.windows_skipped``).
        Without selective tuple formation a window with no survivor
        still converts its other columns whole (the cache and statistics
        learn them), so none is skipped."""
        row_from = self.row_from
        whole = [(row_from, row_to)]
        if not (
            self._prunable
            and self.config.selective_tuple_formation
            and row_from < row_to
        ):
            return whole
        # Window ``i`` is rows ``(k0 + i) * batch_size`` up to the next
        # cut, clipped to ``[row_from, row_to)``; it may hold a row the
        # predicate keeps where ``keep[i + 1]`` (one False either side).
        k0 = row_from // batch_size
        keep = np.zeros(-(-row_to // batch_size) - k0 + 2, dtype=np.bool_)
        for seg in segments:
            lo, hi = max(seg.start, row_from), min(seg.end, row_to)
            if lo < hi:
                k_lo, k_hi = lo // batch_size, (hi - 1) // batch_size + 1
                keep[k_lo - k0 + 1 : k_hi - k0 + 1] |= self._segment_windows(
                    seg, pred_attrs, k_lo, k_hi, batch_size
                )
        skipped = len(keep) - 2 - int(np.count_nonzero(keep))
        if not skipped:
            return whole
        self.metrics.windows_skipped += skipped
        edges = np.flatnonzero(keep[1:] != keep[:-1]).tolist()
        return [
            (
                max(row_from, (k0 + a) * batch_size),
                min(row_to, (k0 + b) * batch_size),
            )
            for a, b in zip(edges[::2], edges[1::2])
        ]

    def _segment_windows(
        self,
        seg: _Segment,
        pred_attrs: list[int],
        k_lo: int,
        k_hi: int,
        batch_size: int,
    ) -> np.ndarray | bool:
        """Per window ``k_lo .. k_hi - 1``: may its rows in ``seg`` hold
        one the predicate keeps?  Always ``True`` unless a window with
        no survivor teaches the engine nothing there: ``seg`` pins every
        predicate attribute in a binary tier and tokenizes nothing."""
        if seg.tokenize_attrs or not _held([seg], pred_attrs):
            return True
        possible = np.ones(k_hi - k_lo, dtype=np.bool_)
        for attr, intervals in self._prunable:
            synopsis = seg.resident[attr][1].synopsis
            if synopsis is not None and synopsis.window_rows == batch_size:
                possible &= synopsis.possible(intervals)[k_lo:k_hi]
        return possible

    def _resident(
        self, segments: list[_Segment], pred_attrs: list[int]
    ) -> bool:
        """Is there a predicate, and does every segment serve its
        attributes from the cache or the columnstore, with nothing left
        to tokenize?"""
        return (
            self.predicate is not None
            and _held(segments, pred_attrs)
            and not any(seg.tokenize_attrs for seg in segments)
        )

    def _select_stride(
        self,
        segments: list[_Segment],
        s0: int,
        s1: int,
        batch_size: int,
        pred_attrs: list[int],
        held: list[int],
        jumped: list[int],
        resident: bool,
    ) -> Iterator[Batch]:
        """Emit the rows of ``[s0, s1)`` the predicate keeps, in file
        order: one evaluation and one ``take`` per held column for the
        whole stride; ``jumped`` columns are acquired per ``batch_size``
        window, for that window's survivors only."""
        self._batch_spans.clear()
        # Survivors' vectors by survivor rank; ``selected`` (relative to
        # ``s0``) stays ``None`` while every row survives.
        vectors: dict[int, ColumnVector] = {}
        selected = None
        if self.predicate is not None:
            pred_vectors = self._acquire(pred_attrs, segments, s0, s1)
            pred_batch = Batch(
                {self._attr_name[a]: v for a, v in pred_vectors.items()},
                num_rows=s1 - s0,
            )
            mask = predicate_mask(self.predicate, pred_batch)
            if not mask.all():
                selected = np.flatnonzero(mask)
            vectors = {
                a: v if selected is None else v.take(selected)
                for a, v in pred_vectors.items()
                if a in self._out_attrs
            }
        sel_abs = None if selected is None else selected + s0
        n_out = s1 - s0 if selected is None else len(selected)
        if held and n_out:
            vectors.update(self._acquire(held, segments, s0, s1, sel=sel_abs))
        if not jumped:
            for k in range(0, n_out, batch_size):
                end = min(k + batch_size, n_out)
                yield self._emit(
                    {a: v.slice(k, end) for a, v in vectors.items()}, end - k
                )
            return
        # Window ``i`` is rows ``s0 + edges[i]`` up to ``s0 + edges[i +
        # 1]``; its survivors are ranks ``cuts[i]`` up to ``cuts[i + 1]``.
        edges = [*range(0, s1 - s0, batch_size), s1 - s0]
        cuts = edges
        if selected is not None:
            cuts = np.searchsorted(selected, edges).tolist()
        for i in range(len(edges) - 1):
            w0, w1 = s0 + edges[i], s0 + edges[i + 1]
            a, b = cuts[i], cuts[i + 1]
            sel = None
            if b - a < w1 - w0 and self.config.selective_tuple_formation:
                sel = sel_abs[a:b]
                if a == b and resident:
                    continue  # nothing qualifies, nothing left to learn
            # Even with no qualifying rows a window that tokenizes does
            # so once, so the map keeps learning.
            part = self._acquire(jumped, segments, w0, w1, sel=sel)
            if a == b:
                continue
            if sel is None and b - a < w1 - w0:
                rows = selected[a:b] - (w0 - s0)
                part = {x: v.take(rows) for x, v in part.items()}
            window = {x: v.slice(a, b) for x, v in vectors.items()}
            window.update(part)
            yield self._emit(window, b - a)

    def _emit(self, vectors: dict[int, ColumnVector], num_rows: int) -> Batch:
        # A zero-column batch still carries its row count (COUNT(*)
        # needs only tuple boundaries, not a single parsed attribute).
        return Batch(
            {
                name: vectors[self.schema.position(name)]
                for name in self.output_columns
            },
            num_rows=num_rows,
        )

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------

    def _ensure_bounds(self) -> int:
        """Line (tuple boundary) index: reuse, extend after append, or build."""
        pm = self.state.positional_map
        use_pm = self.config.enable_positional_map
        known = use_pm and pm.line_bounds is not None
        if known and not self.state.pending_append:
            self._bounds, self._crlf = pm.line_bounds, pm.crlf
            return pm.n_rows

        # One read: the whole file, or — the rows before a pending
        # append being known — only the bytes past them.
        reader = self._ensure_reader()
        start = skip = 0
        if known and pm.line_bounds[-1] > 0:
            # ``line_bounds[-1] - 1`` is the last known record's ``\n``
            # or, that record having been unterminated, the first byte
            # the appender wrote: a ``\r\n`` there is one separator.
            start, skip = int(pm.line_bounds[-1]) - 1, 1
        data = reader.read_range(start, reader.size)
        if skip and data.startswith(b"\r\n"):
            skip = 2
        start += skip
        window = ContentBuffer(data[skip:], start)
        self._index_window = window
        with self.metrics.time(_TOKENIZING):
            bounds = self.adapter.build_line_index(
                window.data,
                self.dialect.has_header and not known,
                base=start,
            )
            crlf = skip == 2 or has_crlf(window.data)
        if known:
            crlf = crlf or pm.crlf
            if len(bounds) > 1:
                bounds = np.concatenate([pm.line_bounds[:-1], bounds])
            else:
                bounds = pm.line_bounds
        if use_pm:
            pm.set_line_bounds(bounds, crlf)
            self.state.pending_append = False
        self._bounds, self._crlf = bounds, crlf
        return len(bounds) - 1

    # ------------------------------------------------------------------
    # Raw-file access: positioned reads of the byte ranges rows occupy.
    # ------------------------------------------------------------------

    def _ensure_reader(self) -> RawFileReader:
        if self._reader is None:
            # The offsets this scan jumps to describe the file version
            # the service last reconciled with; reading any other
            # version is an UpdateConflictError, not wrong rows.
            stamp = None
            fingerprint = self.state.fingerprint
            if fingerprint is not None and self.config.auto_detect_updates:
                stamp = (fingerprint.size_bytes, fingerprint.mtime_ns)
            self._reader = RawFileReader(
                self.state.entry.path, self.metrics, stamp
            )
        return self._reader

    def _window(self, start: int, end: int) -> ContentBuffer:
        """The file bytes ``[start, end)``: a window already held, or
        one positioned read that becomes the batch's window."""
        for window in (self._batch_window, self._index_window):
            if window is not None and window.covers(start, end):
                return window
        data = self._ensure_reader().read_range(start, end)
        self._batch_window = ContentBuffer(data, start)
        return self._batch_window

    def _rows_window(
        self, lo: int, hi: int, sel: np.ndarray | None = None
    ) -> ContentBuffer:
        """The window over rows ``[lo, hi)`` or, given ``sel`` (sorted,
        non-empty), over its first through last row — shared by every
        attribute acquired for those rows."""
        if sel is not None:
            lo, hi = int(sel[0]), int(sel[-1]) + 1
        bounds = self._bounds
        return self._window(int(bounds[lo]), int(bounds[hi]) - 1)

    def _record_ends(
        self, window: ContentBuffer, lo: int, hi: int, sel: np.ndarray | None
    ) -> np.ndarray:
        """Exclusive end of each row's bytes (its newline, CR-trimmed)."""
        bounds = self._bounds
        if sel is not None:
            starts, ends = bounds[sel], bounds[sel + 1] - 1
        else:
            starts, ends = bounds[lo:hi], bounds[lo + 1 : hi + 1] - 1
        if self._crlf:
            ends = trim_cr(window.buf, starts, ends, window.base)
        return ends

    # ------------------------------------------------------------------
    # Scan kernels (repro.kernels).
    # ------------------------------------------------------------------

    def _kernels(self):
        """The kernel cache to use, or ``None`` for the scalar tokenizer.

        ``None`` when the dialect is not eligible (quoting or a
        non-ASCII delimiter runs the state machine) — selection is per
        dialect, so a quoted table and an unquoted one on the same
        engine take different paths.
        """
        if not self._kcache_resolved:
            self._kcache_resolved = True
            if self.adapter.kernel_eligible(self.dialect):
                self._kcache = self.kernel_cache or process_cache()
        return self._kcache

    def _kernel_for_span(self, first_attr: int, last_attr: int):
        """Fetch (building if needed) the kernel for one attribute span.

        The cache lookup and any build run under the ``nodb`` bucket —
        kernel construction is engine overhead, like map and cache
        maintenance — and build time is additionally recorded in
        ``kernel_build_seconds`` for the telemetry breakdown.
        """
        cache = self._kernels()
        if cache is None:
            return None
        signature = make_signature(
            self.dialect,
            self._dtypes,
            first_attr,
            last_attr,
            fmt=self.adapter.name,
        )
        with self.metrics.time(_NODB):
            kernel, built = cache.get(signature)
        if built:
            self.metrics.kernel_build_seconds += built
        return kernel

    def _plan_segments(self, n_rows: int) -> list[_Segment]:
        """Split [row_from, n_rows) at the tiers' coverage boundaries
        and pin, per segment and attribute, the first tier of the
        ladder that covers it; the rest are tokenized."""
        state, metrics = self.state, self.metrics
        needed = self.needed_attrs
        row_from = min(self.row_from, n_rows)
        boundaries = {row_from, n_rows}
        for attr in needed:
            for tier in state.tiers:
                rows = tier.coverage_rows(attr)
                if row_from < rows < n_rows:
                    boundaries.add(rows)
        cuts = sorted(boundaries)

        segments = []
        for start, end in zip(cuts[:-1], cuts[1:]):
            seg = _Segment(start, end)
            for attr in needed:
                for tier in state.tiers:
                    entry = tier.pin(attr, end, metrics)
                    if entry is None:
                        continue
                    if tier is state.positional_map:
                        seg.chunk_hits[attr] = entry
                    else:
                        seg.resident[attr] = (tier, entry)
                    break
                else:
                    seg.tokenize_attrs.add(attr)
            # A columnstore hit counts as a cache miss.
            if self.config.enable_cache:
                hits = sum(t is state.cache for t, _ in seg.resident.values())
                metrics.cache_hits += hits
                metrics.cache_misses += len(needed) - hits
            if self.config.enable_positional_map:
                metrics.pm_chunk_hits += len(seg.chunk_hits)
                metrics.pm_chunk_misses += len(seg.tokenize_attrs)
            segments.append(seg)
        return segments

    def _plan_combination(self, n_rows: int) -> None:
        """Paper's default policy: index the requested attribute
        combination when every requested attribute lives in a different
        chunk."""
        self._combination_plan = None
        if not (
            self.config.enable_positional_map
            and self.config.pm_combination_policy
        ):
            return
        if len(self.needed_attrs) < 2 or n_rows == 0:
            return
        pm = self.state.positional_map
        plan: list[tuple[int, PositionalChunk]] = []
        chunk_ids = set()
        for attr in self.needed_attrs:
            chunk = pm.best_cover(attr)
            if chunk is None or chunk.rows < n_rows:
                return  # some attr not fully mapped yet
            plan.append((attr, chunk))
            chunk_ids.add(id(chunk))
        if len(chunk_ids) != len(self.needed_attrs):
            return  # at least two requested attrs already share a chunk
        self._combination_plan = plan

    # ------------------------------------------------------------------
    # Acquisition.
    # ------------------------------------------------------------------

    def _acquire(
        self,
        attrs: list[int],
        segments: list[_Segment],
        r0: int,
        r1: int,
        sel: np.ndarray | None = None,
    ) -> dict[int, ColumnVector]:
        """Materialize binary vectors for ``attrs`` over rows [r0, r1).

        With ``sel`` (absolute indices of qualifying rows), cache and
        map sources extract only those rows, and tokenized text is
        converted only for those rows — selective parsing / selective
        tuple formation.  Tokenization itself stays full-range so the
        positional map keeps learning.
        """
        try:
            return self._acquire_parts(attrs, segments, r0, r1, sel)
        except RawDataError as exc:
            if exc.row is not None or exc.offset is None:
                raise
            # A tokenizer reported where in the file; name the row.
            row = int(np.searchsorted(self._bounds, exc.offset, "right")) - 1
            raise RawDataError(
                f"row {row}: {exc}", row=row, offset=exc.offset
            ) from exc

    def _acquire_parts(
        self,
        attrs: list[int],
        segments: list[_Segment],
        r0: int,
        r1: int,
        sel: np.ndarray | None,
    ) -> dict[int, ColumnVector]:
        out: dict[int, list[ColumnVector]] = {a: [] for a in attrs}
        for seg in segments:
            lo = max(seg.start, r0)
            hi = min(seg.end, r1)
            if lo >= hi:
                continue
            seg_sel = None
            if sel is not None:
                seg_sel = sel[(sel >= lo) & (sel < hi)]
            to_tokenize = sorted(a for a in attrs if a in seg.tokenize_attrs)
            tokenized = None
            if to_tokenize:
                tokenized = self._tokenize_for(seg, to_tokenize, lo, hi)
            if seg_sel is not None and not len(seg_sel):
                continue  # no row qualifies: nothing to read or convert
            for attr in attrs:
                out[attr].append(
                    self._acquire_attr_part(
                        seg, attr, lo, hi, seg_sel, tokenized
                    )
                )
        result = {}
        for attr, parts in out.items():
            if not parts:
                result[attr] = _empty_vector(self.schema.columns[attr].dtype)
            elif len(parts) == 1:
                result[attr] = parts[0]
            else:
                result[attr] = ColumnVector.concat(parts)
        return result

    def _acquire_attr_part(
        self,
        seg: _Segment,
        attr: int,
        lo: int,
        hi: int,
        sel: np.ndarray | None,
        tokenized: TokenizedRows | None,
    ) -> ColumnVector:
        resident = seg.resident.get(attr)
        if resident is not None:
            # Binary values: no raw-file access at all.
            tier, entry = resident
            return tier.read(entry, lo, hi, sel, self.metrics)

        # The field bytes come from a positional-map jump or from this
        # batch's tokenized rows; whichever found them also knows how
        # they convert (texts, or — numeric columns on the kernel path —
        # byte bounds parsed without materializing any text).
        dtype = self.schema.columns[attr].dtype
        chunk = seg.chunk_hits.get(attr)
        if chunk is not None:
            convert = self._jump_via_chunk(chunk, attr, lo, hi, sel, dtype)
        else:
            convert = self._tokenized_fields(tokenized, attr, lo, sel, dtype)
        convert_start = time.perf_counter()
        with self.metrics.time(_CONVERT):
            vector = convert()
            self.metrics.fields_converted += len(vector)
        convert_seconds = time.perf_counter() - convert_start

        if sel is None:
            self._collect_for_cache(attr, lo, vector, convert_seconds)
            if self.config.enable_statistics:
                with self.metrics.time(_NODB):
                    self.state.statistics.observe(
                        self.schema.columns[attr].name, vector
                    )
        return vector

    def _converter(self, convert, *fields, dtype: DataType, lo: int):
        """``convert`` is ``ColumnVector.from_fields`` over texts or
        ``convert_span`` over ``(window, starts, ends)`` — INTEGER, FLOAT
        and TEXT fields converted from their byte bounds by the kernel."""
        null_token = self.dialect.null_token
        return partial(convert, *fields, dtype, null_token, row_offset=lo)

    def _jump_via_chunk(
        self,
        chunk: PositionalChunk,
        attr: int,
        lo: int,
        hi: int,
        sel: np.ndarray | None,
        dtype: DataType,
    ) -> _Converter:
        """Positional-map jump: one field per row, no tokenizing.

        Returns the converter of the fields found.  For a numeric
        column when a kernel applies the ends come from the mapped
        neighbor column (or one vectorized delimiter search) instead of
        one ``find`` + slice per row.
        """
        col = chunk.column_of(attr)
        window = self._rows_window(lo, hi, sel)
        rows = slice(lo, hi) if sel is None else sel
        kernel = None
        if dtype in _KERNEL_TYPES:
            kernel = self._kernel_for_span(attr, attr)
        with self.metrics.time(_PARSING):
            starts = chunk.offsets[rows, col]
            self.metrics.fields_parsed_via_map += len(starts)
            next_starts = line_ends = None
            if (
                self.adapter.contiguous_fields
                and col + 1 < len(chunk.attrs)
                and chunk.attrs[col + 1] == attr + 1
            ):
                # The next field's start closes this one.
                next_starts = chunk.offsets[rows, col + 1]
            else:
                line_ends = self._record_ends(window, lo, hi, sel)
            if kernel is not None:
                if next_starts is not None:
                    ends = next_starts - 1
                else:
                    ends = kernel.field_ends(window, starts, line_ends)
                return self._converter(
                    convert_span, window, starts, ends, dtype=dtype, lo=lo
                )
            data, base, dialect = window.data, window.base, self.dialect
            if next_starts is not None:
                texts = self.adapter.extract_fields_between(
                    data, starts, next_starts, dialect, base=base
                )
            else:
                extract = self.adapter.extract_field
                texts = [
                    extract(data, s, e, dialect, base)
                    for s, e in zip(starts.tolist(), line_ends.tolist())
                ]
            return self._converter(
                ColumnVector.from_fields, texts, dtype=dtype, lo=lo
            )

    def _tokenized_fields(
        self,
        tokenized: TokenizedRows,
        attr: int,
        lo: int,
        sel: np.ndarray | None,
        dtype: DataType,
    ) -> _Converter:
        """Converter of one attribute of this batch's tokenized rows
        (``sel`` rows only, when given)."""
        rel = None if sel is None else sel - lo
        with self.metrics.time(_PARSING):
            if isinstance(tokenized, KernelRows) and dtype in _KERNEL_TYPES:
                j = attr - tokenized.first_attr
                starts = tokenized.offsets[:, j]
                ends = tokenized.offsets[:, j + 1] - 1
                if rel is not None:
                    starts, ends = starts[rel], ends[rel]
                return self._converter(
                    convert_span,
                    tokenized.cbuf,
                    starts,
                    ends,
                    dtype=dtype,
                    lo=lo,
                )
            texts = tokenized.texts_of(
                attr, None if rel is None else rel.tolist()
            )
            return self._converter(
                ColumnVector.from_fields, texts, dtype=dtype, lo=lo
            )

    def _tokenize_for(
        self, seg: _Segment, attrs: list[int], lo: int, hi: int
    ) -> TokenizedRows:
        """Tokenize rows [lo, hi) covering ``attrs``, anchored as close
        as possible (batch-local spans first, then the positional map,
        then the start of the tuple)."""
        window = self._rows_window(lo, hi)
        bounds = self._bounds
        n_attrs = len(self.schema)
        min_a = min(attrs)
        max_a = max(attrs)
        if not (
            self.config.selective_tokenizing
            and self.adapter.selective_tokenizing
        ):
            max_a = n_attrs - 1

        first = 0
        field_starts = None
        if self.adapter.supports_anchors:
            # 1. Anchor on a span tokenized earlier in this same batch.
            best_prev = None
            for span_lo, span_hi, prev in self._batch_spans:
                if span_lo != lo or span_hi != hi:
                    continue
                next_attr = prev.last_attr + 1
                if next_attr <= min_a and next_attr < n_attrs:
                    if (
                        best_prev is None
                        or next_attr > best_prev.last_attr + 1
                    ):
                        best_prev = prev
            if best_prev is not None:
                first = best_prev.last_attr + 1
                field_starts = best_prev.offsets[:, -1]
            elif self.config.enable_positional_map:
                # 2. Anchor on the map.
                anchor = self.state.positional_map.best_anchor(
                    min_a, min_rows=hi
                )
                if anchor is not None and anchor.attr > 0:
                    first = anchor.attr
                    field_starts = anchor.chunk.offsets[lo:hi, anchor.column]
                    self.state.positional_map.touch(anchor.chunk)
        if field_starts is None:
            # 3. From the start of each tuple (always, for formats whose
            # records must be scanned whole).
            first = 0
            field_starts = bounds[lo:hi]

        line_ends = self._record_ends(window, lo, hi, None)
        kernel = self._kernel_for_span(first, max_a)
        tokenize_start = time.perf_counter()
        with self.metrics.time(_TOKENIZING):
            if kernel is not None:
                tokenized = kernel.tokenize(window, field_starts, line_ends)
            else:
                tokenized = self.adapter.tokenize_span(
                    window.data,
                    field_starts,
                    line_ends,
                    first,
                    max_a,
                    n_attrs,
                    self.dialect,
                    schema=self.schema,
                    base=window.base,
                )
            self.metrics.fields_tokenized += tokenized.num_rows * (
                max_a - first + 1
            )
        tokenize_seconds = time.perf_counter() - tokenize_start

        if not self.config.selective_parsing:
            # Without selective parsing every tokenized field is
            # converted to binary whether or not the query needs it.
            needed = set(self.needed_attrs)
            extra = [a for a in range(first, max_a + 1) if a not in needed]
            with self.metrics.time(_CONVERT):
                for a in extra:
                    ColumnVector.from_fields(
                        tokenized.texts_of(a),
                        self.schema.columns[a].dtype,
                        self.dialect.null_token,
                    )
                    self.metrics.fields_converted += tokenized.num_rows

        if self.config.enable_positional_map:
            self._collect_span(first, max_a, lo, tokenized, tokenize_seconds)
        self._batch_spans.append((lo, hi, tokenized))
        return tokenized

    # ------------------------------------------------------------------
    # Adaptive-structure population.
    # ------------------------------------------------------------------

    def _collect_span(
        self,
        first: int,
        last: int,
        lo: int,
        tokenized: TokenizedRows,
        tokenize_seconds: float = 0.0,
    ) -> None:
        """Record discovered offsets for installation at query end."""
        include_sentinel = last + 1 < len(self.schema)
        attrs = tuple(range(first, last + 2 if include_sentinel else last + 1))
        key = (first, last)
        collector = self._span_collectors.get(key)
        if collector is None:
            collector = _Collector(lo, attrs)
            self._span_collectors[key] = collector
        block = (
            tokenized.offsets
            if include_sentinel
            else tokenized.offsets[:, :-1]
        )
        collector.add(lo, block, tokenize_seconds)

    def _collect_for_cache(
        self, attr: int, lo: int, vector: ColumnVector, convert_seconds: float
    ) -> None:
        if not self.config.enable_cache:
            return
        collector = self._cache_collectors.get(attr)
        if collector is None:
            collector = _Collector(lo)
            self._cache_collectors[attr] = collector
        collector.add(lo, vector, convert_seconds)

    def _finalize(self, n_rows: int) -> None:
        """Install everything learned during the scan (nodb overhead).

        With an ``_install_sink`` set (the service's shared-lock read
        path), the harvested plan is handed off instead and the sink is
        responsible for calling :meth:`_install` under the exclusive
        lock.
        """
        plan = self._harvest(n_rows)
        if self._install_sink is not None:
            self._install_sink(self, plan)
        else:
            self._install(plan)

    def _harvest(self, n_rows: int) -> InstallPlan:
        """Materialize collected offsets/columns and reset scan state."""
        with self.metrics.time(_NODB):
            plan = InstallPlan(
                n_rows=n_rows,
                generation=self.state.generation,
                spans=[
                    (c.attrs, c.start_row, matrix, c.benefit_seconds)
                    for c in self._span_collectors.values()
                    if (matrix := c.materialize(np.vstack)) is not None
                ],
                combination=self._combination_plan,
                columns=[
                    (attr, c.start_row, vector, c.benefit_seconds)
                    for attr, c in self._cache_collectors.items()
                    if (vector := c.materialize(ColumnVector.concat))
                    is not None
                ],
            )
            plan.promotions = self._promotions(plan)
        self._cache_collectors.clear()
        self._span_collectors.clear()
        self._batch_spans.clear()
        return plan

    def _install(self, plan: InstallPlan) -> None:
        """Apply an :class:`InstallPlan` to the shared adaptive state."""
        state = self.state
        if plan.generation != state.generation:
            return  # the raw file was rewritten mid-flight; offsets stale
        pm = state.positional_map
        cache = state.cache
        with self.metrics.time(_NODB):
            if self.config.enable_positional_map:
                protected = {
                    c.attrs
                    for c in pm.entries()
                    if c.last_used_ts >= self._started_ts
                }
                for attrs, start_row, matrix, benefit in plan.spans:
                    if start_row == 0:
                        pm.install(
                            attrs, matrix, protected, benefit_seconds=benefit
                        )
                    else:
                        existing = pm.peek(attrs)
                        if (
                            existing is not None
                            and existing.rows == start_row
                        ):
                            pm.extend(
                                existing, matrix, benefit_seconds=benefit
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

            if self.config.enable_cache:
                needed = set(self.needed_attrs)
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
        self._maybe_promote(plan)

    def _promotions(self, plan: InstallPlan) -> list[int]:
        """The needed attributes whose promoted column ``plan`` may bring
        up to its rows: used ``vp_min_accesses`` times, promoted short
        of them, and with the rows they lack at hand once the plan is
        installed (:meth:`_maybe_promote` checks again)."""
        store = self.state.columnstore
        if store is None:
            return []
        usage = self.state.attribute_usage
        cache = self.state.cache if self.config.enable_cache else None
        # Rows at hand: harvested up to the table's end from ``start``;
        # all of them when the cache (extended by the plan) reaches it.
        starts = {
            a: s for a, s, v, __ in plan.columns if s + len(v) == plan.n_rows
        }
        promotions = []
        for attr in self.needed_attrs:
            start = starts.get(attr, plan.n_rows)
            if cache is not None and cache.coverage_rows(attr) >= start:
                start = 0
            if (
                usage.get(attr, 0) >= self.config.vp_min_accesses
                and start <= store.coverage_rows(attr) < plan.n_rows
            ):
                promotions.append(attr)
        return promotions

    def _maybe_promote(self, plan: InstallPlan) -> None:
        """Vertical persistence: bring hot columns' promoted prefixes up
        to the table's rows.

        Each of ``plan.promotions`` is written into the columnstore,
        where later scans read it without touching the raw file — when
        the rows it lacks are still at hand, converted by this very
        scan or resident in the cache.  A promoted prefix that an
        append left short is extended by the tail alone; the whole
        column is written for one never promoted, or whose files cannot
        take the tail in place.  Charged to the ``nodb`` bucket like
        all adaptive-structure maintenance.
        """
        store = self.state.columnstore
        for attr in plan.promotions:
            covered = store.coverage_rows(attr)
            if covered >= plan.n_rows:
                continue
            with self.metrics.time(_NODB):
                if covered:
                    tail = self._rows_at_hand(plan, attr, covered)
                    if tail is None or store.extend(attr, tail[0]):
                        continue
                full = self._rows_at_hand(plan, attr, 0)
                if full is not None:
                    column = self.schema.columns[attr]
                    store.promote(attr, column.name, column.dtype, *full)

    def _rows_at_hand(
        self, plan: InstallPlan, attr: int, lo: int
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
        if self.config.enable_cache:
            entry = self.state.cache.peek(attr)
            if entry is not None and entry.rows >= plan.n_rows:
                return (
                    entry.vector.slice(lo, plan.n_rows),
                    entry.benefit_seconds,
                )
        return None
