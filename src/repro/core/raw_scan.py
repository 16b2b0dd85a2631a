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

Which rung serves which rows and which windows are skipped is decided
once, when the scan has its line index: the
:class:`repro.core.scan_plan.ScanPlan`, kept as ``scan.plan``.  The
scan walks it.  What it learns on the way is installed when it ends
(:mod:`repro.core.install`).

**Selective tuple formation** is two-phase row assembly: predicate
columns are materialized first, the filter runs once per *stride* of
rows (:meth:`ScanPlan.strides`; the first is the first batch), and the
remaining projected columns are *converted only for qualifying rows* —
"tuples are only created after the select operator".  Each stride
acquires them once, for its survivors, which leave in batches of up to
``batch_size`` rows — all its rows for the columns the plan loads into
the columnstore (``load_attrs``, rent-or-buy).  What is learned is
whole ``batch_size`` windows: each run of adjacent windows whose every
row qualifies is collected (cache) and observed (statistics, keyed by
table row) in one piece.  Tokenization of a batch stays full-width for
the attributes the query touches (that is what populates the map), even
when no row of it qualifies.  Rows always leave in file order.

**Raw access is by byte range.**  Every offset the scan holds is a byte
offset into the raw file, and it reads only the ranges its plan needs:
the whole file once while the line index is unknown, ``[old end,
size)`` after an append (from the last known record's terminator
on), and otherwise — per stride — the one range from the first to the
last row that needs a jump or tokenizing (nothing when no row
qualifies; pieces cut at window edges past
:data:`repro.core.scan_plan.MAX_READ_BYTES`).  See
:mod:`repro.rawio.reader`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..batch import Batch, ColumnVector
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
from .install import Collectors, harvest, install
from .ledger import now
from .metrics import BreakdownComponent, QueryMetrics
from .positional_map import PositionalChunk
from .scan_plan import MAX_READ_BYTES, ScanPlan, Segment, plan_scan

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .install import InstallPlan
    from .table_state import RawTableState

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


def _empty_vector(dtype: DataType) -> ColumnVector:
    return ColumnVector(
        dtype,
        np.zeros(0, dtype=dtype.numpy_dtype),
        np.zeros(0, dtype=np.bool_),
    )


class RawScan(Operator):
    """In-situ scan over one raw CSV or JSONL file."""

    def __init__(
        self,
        state: RawTableState,
        metrics: QueryMetrics,
        output_columns: list[str],
        predicate: Expression | None = None,
        row_from: int = 0,
        *,
        kernel_cache=None,
    ) -> None:
        self.state = state
        self.config = state.config
        self.metrics = metrics
        #: The scan covers table rows ``[row_from, row_to)``: from the
        #: row it was asked to start at (an MV's watermark; 0 otherwise)
        #: to the end of the line index it ran against — ``None`` until
        #: that is known.
        self.row_from = row_from
        self.row_to: int | None = None
        #: When set (the service's shared-lock read path), the finished
        #: scan hands its :class:`InstallPlan` here instead of installing
        #: into the shared structures itself.
        self._install_sink: Callable[[RawScan, InstallPlan], None] | None
        self._install_sink = None
        self.schema = state.entry.schema
        self._dtypes = tuple(c.dtype for c in self.schema.columns)
        self._names = tuple(c.name for c in self.schema.columns)
        self.dialect = state.entry.dialect
        #: The table's format adapter — all tokenizing geometry
        #: (line index, span tokenizing, warm map jumps, kernel
        #: eligibility) routes through it.
        self.adapter = state.entry.adapter
        #: JSONL fields are JSON value tokens: ``convert_span`` strips a
        #: string's quotes and reads an unquoted ``null`` as NULL.
        self._json_values = self.adapter.name == "jsonl"
        self.output_columns = list(output_columns)
        self.predicate = predicate

        pred_columns: list[str] = []
        if predicate is not None:
            for ref in expr_column_refs(predicate):
                if ref.key not in pred_columns:
                    if not self.schema.has_column(ref.key):
                        raise ExecutionError(
                            f"predicate references unknown column {ref.key!r}"
                        )
                    pred_columns.append(ref.key)
        needed = list(dict.fromkeys(pred_columns + self.output_columns))
        self.needed_attrs = sorted(self.schema.positions(needed))
        #: The attributes the predicate reads, in attribute order.
        self.pred_attrs = sorted(self.schema.positions(pred_columns))
        self._attr_name = {self.schema.position(n): n for n in needed}
        self._out_attrs = set(self.schema.positions(self.output_columns))

        #: The engine's :class:`repro.kernels.KernelCache` or, unset (a
        #: bare scan), the per-process one; ``None`` runs the scalar
        #: tokenizer: the dialect is not eligible (quoting or a
        #: non-ASCII delimiter runs the state machine).
        self._kernels = None
        if self.adapter.kernel_eligible(self.dialect):
            # ``is None``: an empty KernelCache is falsy (``__len__``).
            if kernel_cache is None:
                kernel_cache = process_cache()
            self._kernels = kernel_cache

        #: What this execution decided (:func:`plan_scan`); ``None``
        #: only before it has its line index.
        self.plan: ScanPlan | None = None
        #: What this execution learned, until it is installed.
        self.collectors = Collectors()
        # Per-execution state.  The scan never holds "the file": it
        # holds the window the line index was learned from (the whole
        # file when cold, the appended tail, nothing when warm) and the
        # window the current batch's rows were read into.
        self._reader: RawFileReader | None = None
        self._index_window: ContentBuffer | None = None
        self._batch_window: ContentBuffer | None = None
        self._bounds: np.ndarray | None = None
        self._crlf = False
        # Spans tokenized for the current batch, reusable as anchors by
        # later acquisitions over the same rows (phase B after phase A).
        self._batch_spans: list[tuple[int, int, TokenizedRows]] = []
        #: Scans are built per query: map chunks touched since are this
        #: query's working set, which its own installs must not evict.
        self.started_ts = now()

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
        # Served wholly from binary tiers: the scan reads no raw byte.
        state, n = self.state, self.state.table_rows()
        binary = {state.cache: "cache", state.columnstore: "columnstore"}
        tiers = [t for t in state.tiers if t in binary]
        served: dict[str, list[str]] = {}
        for attr in self.needed_attrs if n is not None else ():
            held = [t for t in tiers if t.coverage_rows(attr) >= n]
            if not held:
                break
            served.setdefault(binary[held[0]], []).append(self._names[attr])
        else:
            if served:
                parts = (f"{k}: {', '.join(v)}" for k, v in served.items())
                text += f"\n-- served from binary tiers ({'; '.join(parts)})"
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
        n_rows = self.row_to = self._ensure_bounds()
        if self.config.enable_statistics:
            state.statistics.set_row_estimate(n_rows)
        self.plan = plan_scan(self, self._bounds)
        try:
            yield from self._scan_batches()
        finally:
            # Runs even when a LIMIT above abandons the scan early: the
            # offsets/values collected so far form a valid row prefix and
            # are installed, so partial scans still teach the engine.
            self._finalize(n_rows)

    def _scan_batches(self) -> Iterator[Batch]:
        """The plan's rows, one selection stride at a time."""
        plan = self.plan
        if not plan.runs:
            # Every window was ruled out: evaluate over no rows, so a
            # predicate the evaluator rejects still raises.
            empty = {
                self._attr_name[a]: _empty_vector(self._dtypes[a])
                for a in plan.pred_attrs
            }
            predicate_mask(self.predicate, Batch(empty, num_rows=0))
        for s0, s1 in plan.strides():
            yield from self._select_stride(s0, s1)

    def _select_stride(self, s0: int, s1: int) -> Iterator[Batch]:
        """Emit the rows of ``[s0, s1)`` the predicate keeps, in file
        order, in batches of up to ``batch_size`` rows: one predicate
        evaluation, then one acquisition of the projection-only columns
        for the stride's survivors (all of its rows, then taken, for
        the columns it loads).  What the acquisition converts is learned
        for the windows it acquires whole (:meth:`_learn`)."""
        plan = self.plan
        batch_size = plan.batch_size
        self._batch_spans.clear()
        # Survivors' vectors by survivor rank; ``selected`` (relative to
        # ``s0``) stays ``None`` while every row survives.
        vectors: dict[int, ColumnVector] = {}
        selected = None
        if self.predicate is not None:
            pred_vectors = self._acquire(plan.pred_attrs, s0, s1)
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
        n_out = s1 - s0 if selected is None else len(selected)
        sel = None if selected is None else selected + s0
        proj_attrs = plan.proj_attrs
        if plan.load_attrs:
            # Loaded whole (first, so the survivors' read below reuses
            # the window), then taken like any other column.
            part = self._acquire(plan.load_attrs, s0, s1)
            vectors.update(
                (a, v if selected is None else v.take(selected))
                for a, v in part.items()
            )
            proj_attrs = tuple(a for a in proj_attrs if a not in part)
        # With no survivors a stride that tokenizes still does so once,
        # so the map keeps learning; a resident one has nothing to learn.
        if proj_attrs and (n_out or not plan.resident):
            vectors.update(self._acquire(proj_attrs, s0, s1, sel=sel))
        for k in range(0, n_out, batch_size):
            end = min(k + batch_size, n_out)
            yield self._emit(
                {a: v.slice(k, end) for a, v in vectors.items()}, end - k
            )

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
    # Line index (the plan is built on it: repro.core.scan_plan).
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
            if fingerprint is not None:
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

    def _kernel_for_span(self, first_attr: int, last_attr: int):
        """Fetch (building if needed) the kernel for one attribute span.

        The cache lookup and any build run under the ``nodb`` bucket —
        kernel construction is engine overhead, like map and cache
        maintenance — and build time is additionally recorded in
        ``kernel_build_seconds`` for the telemetry breakdown.
        """
        cache = self._kernels
        if cache is None:
            return None
        signature = make_signature(
            self.dialect,
            self._dtypes,
            first_attr,
            last_attr,
            fmt=self.adapter.name,
            names=self._names,
        )
        with self.metrics.time(_NODB):
            kernel, built = cache.get(signature)
        if built:
            self.metrics.kernel_build_seconds += built
        return kernel

    # ------------------------------------------------------------------
    # Acquisition.
    # ------------------------------------------------------------------

    def _acquire(
        self,
        attrs: tuple[int, ...],
        r0: int,
        r1: int,
        sel: np.ndarray | None = None,
    ) -> dict[int, ColumnVector]:
        """Materialize binary vectors for ``attrs`` over rows [r0, r1).

        With ``sel`` (absolute indices of qualifying rows), cache and
        map sources extract only those rows, and tokenized text is
        converted only for those rows — selective parsing / selective
        tuple formation.  Tokenization itself stays full-range so the
        positional map keeps learning, and covers every attribute the
        segment tokenizes, so the stride's later acquisitions of the
        same rows read that one span.  Each segment is acquired once
        per read piece (:meth:`_read_pieces`); the runs of adjacent
        ``batch_size`` windows in which every row is acquired are
        learned one run at a time (:meth:`_learn`).
        """
        edges = self.plan.window_edges(r0, r1)
        # Where each window's rows start in ``sel``.
        ranks = None
        if sel is not None:
            ranks = [0, len(sel)]
            if len(edges) > 2:
                ranks = np.searchsorted(sel, edges).tolist()
        # Runs of adjacent windows in which every row is acquired.
        whole: list[tuple[int, int]] = []
        for i, (w0, w1) in enumerate(zip(edges, edges[1:])):
            if ranks is None or ranks[i + 1] - ranks[i] == w1 - w0:
                start = whole.pop()[0] if whole and whole[-1][1] == w0 else w0
                whole.append((start, w1))
        out: dict[int, list[ColumnVector]] = {a: [] for a in attrs}
        for p0, p1 in self._read_pieces(attrs, edges, sel, ranks):
            for seg in self.plan.segments:
                lo = max(seg.start, p0)
                hi = min(seg.end, p1)
                if lo >= hi:
                    continue
                seg_sel = None
                if sel is not None:
                    seg_sel = sel[(sel >= lo) & (sel < hi)]
                converted = {}
                try:
                    # Every attribute the segment tokenizes, at once: a
                    # later acquisition of these rows reads this span.
                    tokenized = self._tokenize_for(
                        sorted(seg.tokenize_attrs), lo, hi
                    )
                    if seg_sel is not None and not len(seg_sel):
                        continue  # no row qualifies: nothing to convert
                    for attr in attrs:
                        vector, seconds = self._acquire_attr_part(
                            seg, attr, lo, hi, seg_sel, tokenized
                        )
                        out[attr].append(vector)
                        if seconds is not None:
                            converted[attr] = (vector, seconds)
                except RawDataError as exc:
                    if exc.row is not None or exc.offset is None:
                        raise
                    # A tokenizer reported where in the file; name the row.
                    row = np.searchsorted(self._bounds, exc.offset, "right")
                    row = int(row) - 1
                    raise RawDataError(
                        f"row {row}: {exc}", row=row, offset=exc.offset
                    ) from exc
                if converted:
                    self._learn(converted, lo, hi, seg_sel, whole)
        result = {}
        for attr, parts in out.items():
            if not parts:
                result[attr] = _empty_vector(self.schema.columns[attr].dtype)
            elif len(parts) == 1:
                result[attr] = parts[0]
            else:
                result[attr] = ColumnVector.concat(parts)
        return result

    def _read_pieces(
        self,
        attrs: tuple[int, ...],
        edges: list[int],
        sel: np.ndarray | None,
        ranks: list[int] | None,
    ) -> list[tuple[int, int]]:
        """Rows ``[edges[0], edges[-1])`` cut at window edges so that
        no positioned read of ``attrs``' raw fields — from a piece's
        first acquired row through its last — exceeds
        :data:`MAX_READ_BYTES`; one window is never cut.  ``ranks``
        places ``edges`` in ``sel``."""
        r0, r1 = edges[0], edges[-1]
        if len(edges) <= 2 or sel is not None and not len(sel):
            return [(r0, r1)]
        bounds = self._bounds
        lo, hi = (r0, r1 - 1) if sel is None else (sel[0], sel[-1])
        if bounds[hi + 1] - bounds[lo] <= MAX_READ_BYTES or all(
            a in seg.resident
            for seg in self.plan.segments
            if seg.start < r1 and r0 < seg.end
            for a in attrs
        ):
            return [(r0, r1)]
        pieces, start, first = [], r0, None
        for i in range(len(edges) - 1):
            if sel is None:
                w_first, w_last = edges[i], edges[i + 1] - 1
            elif ranks[i] < ranks[i + 1]:
                w_first, w_last = sel[ranks[i]], sel[ranks[i + 1] - 1]
            else:
                continue  # no acquired row
            if first is None:
                first = w_first
            elif bounds[w_last + 1] - bounds[first] > MAX_READ_BYTES:
                pieces.append((start, edges[i]))
                start, first = edges[i], w_first
        pieces.append((start, r1))
        return pieces

    def _learn(
        self,
        converted: dict[int, tuple[ColumnVector, float]],
        lo: int,
        hi: int,
        sel: np.ndarray | None,
        whole: list[tuple[int, int]],
    ) -> None:
        """Collect (cache) and observe (statistics) the vectors
        converted for rows [lo, hi) (``sel`` rows only, when given),
        one ``whole`` run of windows at a time; each run's share of the
        conversion seconds is its share of the rows."""
        for w0, w1 in whole:
            l0, l1 = max(w0, lo), min(w1, hi)
            if l0 >= l1:
                continue
            k = l0 - lo if sel is None else int(np.searchsorted(sel, l0))
            for attr, (vector, seconds) in converted.items():
                piece = vector
                if l1 - l0 < len(vector):
                    piece = vector.slice(k, k + l1 - l0)
                    seconds *= (l1 - l0) / len(vector)
                if self.config.enable_cache or attr in self.plan.load_attrs:
                    # A cached run holds only its own rows and strings.
                    own = piece if piece is vector else piece.compacted()
                    self.collectors.add_column(attr, l0, own, seconds)
                if self.config.enable_statistics:
                    with self.metrics.time(_NODB):
                        self.state.statistics.observe(
                            self.schema.columns[attr].name, piece, l0
                        )

    def _acquire_attr_part(
        self,
        seg: Segment,
        attr: int,
        lo: int,
        hi: int,
        sel: np.ndarray | None,
        tokenized: dict[int, TokenizedRows],
    ) -> tuple[ColumnVector, float | None]:
        """One attribute's vector over rows [lo, hi) of ``seg`` (``sel``
        rows only, when given; ``tokenized`` by attribute) and the
        seconds its conversion took — ``None`` when a tier served it."""
        resident = seg.resident.get(attr)
        if resident is not None:
            # Binary values: no raw-file access at all.
            tier, entry = resident
            return tier.read(entry, lo, hi, sel, self.metrics), None

        # The field bytes come from a positional-map jump or from this
        # batch's tokenized rows; whichever found them also knows how
        # they convert (texts, or — INTEGER, FLOAT and TEXT columns on
        # the kernel path — byte bounds parsed without materializing
        # any text).
        dtype = self.schema.columns[attr].dtype
        chunk = seg.chunk_hits.get(attr)
        if chunk is not None:
            convert = self._jump_via_chunk(chunk, attr, lo, hi, sel, dtype)
        else:
            convert = self._tokenized_fields(
                tokenized[attr], attr, lo, sel, dtype
            )
        convert_start = time.perf_counter()
        with self.metrics.time(_CONVERT):
            vector = convert()
            self.metrics.fields_converted += len(vector)
        return vector, time.perf_counter() - convert_start

    def _converter(self, texts: list[str], dtype: DataType, rows):
        """``ColumnVector.from_fields`` over field texts; ``rows`` (the
        first field's row, or the ``sel`` array) names a bad field's
        row."""
        return partial(
            ColumnVector.from_fields,
            texts,
            dtype,
            self.dialect.null_token,
            row_offset=rows,
        )

    def _span_converter(
        self,
        cbuf: ContentBuffer,
        starts: np.ndarray,
        ends: np.ndarray,
        dtype: DataType,
        rows,
    ):
        """``convert_span``: INTEGER, FLOAT and TEXT fields converted
        from their byte bounds in ``cbuf`` by the kernel (``rows`` as
        for :meth:`_converter`)."""
        return partial(
            convert_span,
            cbuf,
            starts,
            ends,
            dtype,
            self.dialect.null_token,
            row_offset=rows,
            json=self._json_values,
        )

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
        if sel is not None and self.state.columnstore is not None:
            # Rent-or-buy (repro.core.scan_plan): what this jump reads.
            bounds = self._bounds
            rent = int(bounds[sel[-1] + 1] - bounds[sel[0]])
            self.state.pay_rent(attr, rent)
        rows = slice(lo, hi) if sel is None else sel
        rows_of = lo if sel is None else sel
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
                if ends is not None:
                    return self._span_converter(
                        window, starts, ends, dtype, rows_of
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
            return self._converter(texts, dtype, rows_of)

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
        rows_of = lo if sel is None else sel
        with self.metrics.time(_PARSING):
            if isinstance(tokenized, KernelRows) and dtype in _KERNEL_TYPES:
                starts, ends = tokenized.field_bounds(attr)
                if rel is not None:
                    starts, ends = starts[rel], ends[rel]
                return self._span_converter(
                    tokenized.cbuf, starts, ends, dtype, rows_of
                )
            texts = tokenized.texts_of(
                attr, None if rel is None else rel.tolist()
            )
            return self._converter(texts, dtype, rows_of)

    def _tokenize_for(
        self, attrs: list[int], lo: int, hi: int
    ) -> dict[int, TokenizedRows]:
        """Tokenized rows [lo, hi) for each of ``attrs``: from a span
        this batch already holds over them (rows are tokenized once per
        batch), else from one new span anchored as close as possible
        (batch-local spans first, then the map, then the tuple start)."""
        spans = [
            p for s0, s1, p in self._batch_spans if (s0, s1) == (lo, hi)
        ]
        out = {
            a: p
            for p in spans
            for a in attrs
            if p.first_attr <= a <= p.last_attr
        }
        rest = [a for a in attrs if a not in out]
        if not rest:
            return out
        min_a, max_a = min(rest), max(rest)
        window = self._rows_window(lo, hi)
        bounds = self._bounds
        n_attrs = len(self.schema)
        if not self.adapter.selective_tokenizing:
            max_a = n_attrs - 1

        first = 0
        field_starts = None
        if self.adapter.supports_anchors:
            # 1. Anchor on a span tokenized earlier in this same batch:
            # the one ending closest before ``min_a``.
            best_prev = max(
                (p for p in spans if p.last_attr < min(min_a, n_attrs - 1)),
                key=lambda p: p.last_attr,
                default=None,
            )
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
        # The offsets go straight into the rows of the span's map matrix.
        span = into = None
        if self.config.enable_positional_map:
            span = self.collectors.span(first, max_a, n_attrs, lo, self.row_to)
            into = span.rows(lo, hi)
        tokenize_start = time.perf_counter()
        with self.metrics.time(_TOKENIZING):
            tokenized = None
            if kernel is not None:
                # ``None``: a JSONL window only the scalar parser reads.
                tokenized = kernel.tokenize(
                    window, field_starts, line_ends, into
                )
            if tokenized is None:
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
                    first_row=lo,
                )
                if into is not None:
                    into[:] = tokenized.offsets[:, : into.shape[1]]
            self.metrics.fields_tokenized += tokenized.num_rows * (
                max_a - first + 1
            )
        if span is not None:
            span.filled(hi, time.perf_counter() - tokenize_start)
        self._batch_spans.append((lo, hi, tokenized))
        out.update(dict.fromkeys(rest, tokenized))
        return out

    # ------------------------------------------------------------------
    # Adaptive-structure population (repro.core.install).
    # ------------------------------------------------------------------

    def _finalize(self, n_rows: int) -> None:
        """Install everything learned during the scan (nodb overhead).

        With an ``_install_sink`` set (the service's shared-lock read
        path), the harvested plan is handed off instead and the sink is
        responsible for calling :func:`repro.core.install.install` under
        the exclusive lock.
        """
        plan = harvest(self, n_rows)
        self._batch_spans.clear()
        if self._install_sink is not None:
            self._install_sink(self, plan)
        else:
            install(self, plan)
