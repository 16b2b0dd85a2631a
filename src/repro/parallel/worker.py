"""Per-chunk scan work executed inside the pool.

A worker runs the *existing* selective tokenize/parse/convert machinery
(:class:`repro.core.raw_scan.RawScan`) over one chunk, against a fresh
chunk-local :class:`RawTableState` — so selective tokenizing, anchored
jumps, selective parsing and selective tuple formation behave exactly as
in the serial scan.  Everything a worker learns is harvested *before*
installation and shipped back with chunk-local row numbers (row 0 =
first row of the chunk) and **file byte offsets** — the worker reads
its own byte range, so its offsets are already the file's:

* the emitted :class:`Batch` objects (partial query result),
* span collectors (partial positional map: discovered field offsets),
* column collectors (partial cache: converted binary columns),
* a statistics log (full-column vectors in observation order),
* a per-worker :class:`QueryMetrics` (per-worker Figure 3 buckets).

The merge layer shifts the rows into table coordinates and stitches the
pieces back into the shared state deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..batch import Batch, ColumnVector
from ..catalog.catalog import RawTableEntry
from ..catalog.schema import TableSchema
from ..config import PostgresRawConfig
from ..core.metrics import BreakdownComponent, QueryMetrics
from ..core.raw_scan import RawScan, RawTableState
from ..errors import ScanWorkerError, UpdateConflictError
from ..kernels import ContentBuffer
from ..rawio.dialect import CsvDialect
from ..rawio.reader import FileStamp, RawFileReader
from ..rawio.tokenizer import has_crlf
from ..sql.ast import Expression

#: Recency stamp of an adopted anchor the worker has not jumped from.
UNTOUCHED = float("-inf")


@dataclass
class ChunkTask:
    """Everything one worker needs to scan one chunk, self-contained.

    A chunk is a byte range of the raw file that the worker reads
    itself, on either backend — no file content crosses a thread or a
    pickle boundary.
    """

    index: int
    entry_name: str
    schema: TableSchema
    dialect: CsvDialect
    output_columns: list[str]
    predicate: Expression | None
    config: PostgresRawConfig
    collect_stats: bool
    first_chunk: bool
    #: Source-file format of the table (``repro.formats``): the worker
    #: rebuilds its chunk-local entry with the same adapter, so JSONL
    #: chunks tokenize as JSON records on both pool backends.
    fmt: str = "csv"
    path: str = ""
    byte_start: int = 0
    byte_end: int = 0
    #: The file version the driver planned against; a worker that finds
    #: another one raises ``UpdateConflictError``.
    stamp: FileStamp | None = None
    #: Known row structure of the chunk (tail scans): its slice of the
    #: line index and the table's CRLF flag.  Cold scans build their own.
    bounds: np.ndarray | None = None
    crlf: bool = False
    #: Row slices of shared positional-map chunks, so anchored
    #: tokenizing works inside the worker.
    anchor_chunks: list[tuple[tuple[int, ...], np.ndarray]] = field(
        default_factory=list
    )


@dataclass
class SpanHarvest:
    """One span collector's state, in chunk-local coordinates."""

    key: tuple[int, int]
    attrs: tuple[int, ...]
    start_row: int
    matrix: np.ndarray
    valid: bool
    benefit_seconds: float = 0.0


@dataclass
class ColumnHarvest:
    """One cache collector's state, in chunk-local coordinates."""

    attr: int
    start_row: int
    vector: ColumnVector
    benefit_seconds: float
    valid: bool


@dataclass
class ChunkResult:
    """What one worker sends back to the merge layer."""

    index: int
    n_rows: int
    #: Cold scans: the chunk's line index (file offsets) and whether it
    #: holds a CRLF record end.
    bounds: np.ndarray | None
    crlf: bool
    batches: list[Batch]
    spans: list[SpanHarvest]
    columns: list[ColumnHarvest]
    stats_log: list[tuple[int, ColumnVector]]
    metrics: QueryMetrics
    #: Indices (into the task's ``anchor_chunks``) of anchors some batch
    #: actually jumped from — the driver touches only those shared
    #: chunks, mirroring the serial scan's LRU recency updates.
    anchors_used: list[int] = field(default_factory=list)
    #: Wall seconds the worker spent on this chunk, measured on the
    #: worker's own clock (monotonic clocks are not comparable across
    #: processes, so only the *duration* travels back; the driver
    #: synthesizes the chunk's trace span from it at merge time).
    elapsed_s: float = 0.0


class _ChunkScan(RawScan):
    """RawScan that additionally logs full-column reads for statistics.

    Workers run with statistics disabled (the reservoir sampler is
    shared, main-thread state); instead every vector the serial scan
    *would* have observed — a full-column read, ``sel is None`` — is
    logged in observation order and replayed by the merge layer.
    """

    def __init__(self, *args, collect_stats: bool = False) -> None:
        super().__init__(*args)
        self._collect_stats = collect_stats
        self.stats_log: list[tuple[int, ColumnVector]] = []

    def _acquire_attr_part(self, seg, attr, lo, hi, sel, tokenized):
        vector = super()._acquire_attr_part(seg, attr, lo, hi, sel, tokenized)
        if self._collect_stats and sel is None:
            self.stats_log.append((attr, vector))
        return vector


def scan_chunk(task: ChunkTask) -> ChunkResult:
    """Scan one chunk; the pool's work function (also pickled to forks).

    Any worker-side failure is wrapped in
    :class:`repro.errors.ScanWorkerError` carrying the chunk index and
    table name — so a process-backend crash surfaces with its scan
    context instead of a bare pickled traceback.
    """
    t0 = time.perf_counter()
    try:
        result = _scan_chunk(task)
    except (ScanWorkerError, UpdateConflictError):
        raise  # already typed: scan context / the file changed under us
    except Exception as exc:
        raise ScanWorkerError(
            f"scan worker failed on chunk {task.index} of table "
            f"{task.entry_name!r}: {exc!r}",
            chunk_index=task.index,
            table=task.entry_name,
            row=getattr(exc, "row", None),
            offset=getattr(exc, "offset", None),
        ) from exc
    result.elapsed_s = time.perf_counter() - t0
    return result


def _scan_chunk(task: ChunkTask) -> ChunkResult:
    metrics = QueryMetrics()
    with RawFileReader(task.path, metrics, task.stamp) as reader:
        window = ContentBuffer(
            reader.read_range(task.byte_start, task.byte_end),
            task.byte_start,
        )

    entry = RawTableEntry(
        task.entry_name,
        task.schema,
        Path(task.path),
        task.dialect,
        task.fmt,
    )
    state = RawTableState(entry, task.config, governor=None)
    scan = _ChunkScan(
        state,
        metrics,
        task.output_columns,
        task.predicate,
        task.config,
        collect_stats=task.collect_stats,
    )
    # Every row of the chunk lies inside this window: the scan below
    # never reads the file again.
    scan._index_window = window

    if task.bounds is not None:
        bounds = np.asarray(task.bounds, dtype=np.int64)
        crlf = task.crlf
    else:
        with metrics.time(BreakdownComponent.TOKENIZING):
            bounds = entry.adapter.build_line_index(
                window.data,
                task.first_chunk and task.dialect.has_header,
                base=window.base,
            )
            crlf = has_crlf(window.data)
    n_rows = max(len(bounds) - 1, 0)
    scan._bounds, scan._crlf = bounds, crlf
    pm = state.positional_map
    pm.set_line_bounds(bounds, crlf)
    adopted = []
    for attrs, offsets in task.anchor_chunks:
        chunk = pm.adopt(attrs, offsets)
        # Sentinel recency: any touch (an anchored jump) stamps a real
        # time over it — that is how the driver learns which shared
        # chunks to mark recently-used.
        chunk.last_used_ts = UNTOUCHED
        adopted.append(chunk)

    segments = scan._plan_segments(n_rows)
    pred_attrs = sorted(task.schema.positions(scan._pred_columns))
    pred_set = set(pred_attrs)
    proj_only = [a for a in scan.needed_attrs if a not in pred_set]
    batches = list(
        scan._scan_batches(
            segments, n_rows, task.config.batch_size, pred_attrs, proj_only
        )
    )

    spans = []
    for key, coll in scan._span_collectors.items():
        matrix = coll.materialize(np.vstack)
        if matrix is None and coll.valid:
            continue
        if matrix is None:
            matrix = np.zeros((0, len(coll.attrs)), dtype=np.int64)
        spans.append(
            SpanHarvest(
                key,
                coll.attrs,
                coll.start_row,
                matrix,
                coll.valid,
                coll.benefit_seconds,
            )
        )
    columns = []
    for attr, coll in scan._cache_collectors.items():
        vector = coll.materialize(ColumnVector.concat)
        if vector is None and coll.valid:
            continue
        columns.append(
            ColumnHarvest(
                attr, coll.start_row, vector, coll.benefit_seconds, coll.valid
            )
        )

    metrics.rows_scanned = n_rows
    return ChunkResult(
        index=task.index,
        n_rows=n_rows,
        bounds=bounds if task.bounds is None else None,
        crlf=crlf,
        batches=batches,
        spans=spans,
        columns=columns,
        stats_log=scan.stats_log,
        metrics=metrics,
        anchors_used=[
            i for i, c in enumerate(adopted) if c.last_used_ts != UNTOUCHED
        ],
    )
