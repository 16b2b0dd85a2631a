"""Per-chunk scan work executed inside the pool.

A worker plans and scans one chunk exactly as the serial scan does —
:func:`repro.core.scan_plan.plan_scan`, then
:class:`repro.core.raw_scan.RawScan`'s walk — against a fresh
chunk-local :class:`RawTableState`.  Everything a worker learns is
shipped back with chunk-local row numbers (row 0 = first row of the
chunk) and **file byte offsets** — the worker reads its own byte range,
so its offsets are already the file's:

* the emitted :class:`Batch` objects (partial query result),
* its packed :class:`repro.core.install.Collectors` (field offsets for
  the positional map, converted columns for the cache),
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
from ..core.install import Collectors
from ..core.metrics import QueryMetrics
from ..core.raw_scan import RawScan
from ..core.scan_plan import plan_scan
from ..core.table_state import RawTableState
from ..errors import ScanWorkerError, UpdateConflictError
from ..kernels import ContentBuffer
from ..rawio.dialect import CsvDialect
from ..rawio.reader import FileStamp, RawFileReader
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
    #: The chunk's slice of the table's line index (file offsets: row
    #: ``i`` of the chunk starts at ``bounds[i]``) and the table's CRLF
    #: flag — the main thread built the index before the pool runs.
    bounds: np.ndarray
    crlf: bool = False
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
    #: Row slices of shared positional-map chunks, so anchored
    #: tokenizing works inside the worker.
    anchor_chunks: list[tuple[tuple[int, ...], np.ndarray]] = field(
        default_factory=list
    )


@dataclass
class ChunkResult:
    """What one worker sends back to the merge layer."""

    index: int
    n_rows: int
    batches: list[Batch]
    #: What the chunk's scan learned, in chunk-local rows.
    collectors: Collectors
    #: ``(column name, vector)`` per full-column read, in order.
    stats_log: list[tuple[str, ColumnVector]]
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


class _StatsLog(list):
    """A chunk-local state's statistics: what the scan observes, in
    order, for the merge to replay into the shared reservoir."""

    def observe(self, name: str, vector: ColumnVector) -> None:
        self.append((name, vector))


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
    state.statistics = stats_log = _StatsLog()
    scan = RawScan(state, metrics, task.output_columns, task.predicate)
    # Every row of the chunk lies inside this window: the scan below
    # never reads the file again.
    scan._index_window = window

    bounds = np.asarray(task.bounds, dtype=np.int64)
    n_rows = max(len(bounds) - 1, 0)
    scan._bounds, scan._crlf = bounds, task.crlf
    pm = state.positional_map
    pm.set_line_bounds(bounds, task.crlf)
    adopted = []
    for attrs, offsets in task.anchor_chunks:
        chunk = pm.adopt(attrs, offsets)
        # Sentinel recency: any touch (an anchored jump) stamps a real
        # time over it — that is how the driver learns which shared
        # chunks to mark recently-used.
        chunk.last_used_ts = UNTOUCHED
        adopted.append(chunk)

    scan.plan = plan_scan(scan, bounds)
    batches = list(scan._scan_batches())
    scan.collectors.pack()

    metrics.rows_scanned = n_rows
    return ChunkResult(
        index=task.index,
        n_rows=n_rows,
        batches=batches,
        collectors=scan.collectors,
        stats_log=stats_log,
        metrics=metrics,
        anchors_used=[
            i for i, c in enumerate(adopted) if c.last_used_ts != UNTOUCHED
        ],
    )
