"""The one parallel scan path: the plan's unmapped tail over the pool.

A scan that reaches the pool already has its line index and its
:class:`repro.core.scan_plan.ScanPlan`.  The plan's ``tail_from`` is the
first row of the longest suffix in which every needed attribute must be
tokenized; the serial scan serves the rows before it with its usual
cache / map machinery and :func:`run_tail` fans the suffix out at
batch-aligned row cuts, each worker reading the byte range of its rows.
Workers receive row slices of shared positional chunks, so anchored
tokenizing ("jump ... as close as possible") behaves exactly as in the
serial scan; batch cuts land on the same global ``batch_size``
multiples, so the merged structures — cache content and the
reservoir-sampled statistics included — match the serial path.

A cold scan is the same path with an empty prefix: the main thread
builds the line index (one vectorized pass) and the whole file fans
out as the tail.  ``parallel_backend`` picks only the pool (threads or
processes); both run this one algorithm.

Chunk results **stream** through an ordered merge: the pool dispatches
chunks with a bounded in-flight window (``2 * scan_workers``), each
chunk's batches are yielded the moment the chunk is the next in row
order, and its positional-map / cache / statistics contributions are
folded into the scan's collectors incrementally
(:func:`repro.parallel.merge.stitch_one`) — so a parallel scan's peak
additional memory is O(window x chunk), not O(result set), and the
first batch reaches the consumer while later chunks are still being
scanned.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TYPE_CHECKING

from ..batch import Batch
from ..core.metrics import QueryMetrics, Stopwatch
from ..errors import RawDataError, ScanWorkerError
from .chunker import row_cuts
from .merge import stitch_one
from .pool import ScanPool
from .worker import ChunkResult, ChunkTask, scan_chunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.raw_scan import RawScan


def _reraise_in_table_rows(exc: ScanWorkerError, row_base: int):
    """Re-raise a worker's error with its row — counted from the first
    row of its chunk, table row ``row_base`` — as the table's row."""
    if exc.row is None:
        raise exc
    row = row_base + exc.row
    raise ScanWorkerError(
        f"row {row} (row {exc.row} of its chunk): {exc}",
        exc.chunk_index,
        exc.table,
        row,
        exc.offset,
    ) from exc


def run_tail(scan: "RawScan", tail_from: int, n_rows: int) -> Iterator[Batch]:
    """Scan rows ``[tail_from, n_rows)`` of ``scan`` over the pool."""
    state, cfg = scan.state, scan.config
    bounds = scan._bounds
    # The prefix is done and workers read their own byte ranges:
    # whatever the main thread read (the whole file, when it built the
    # line index) need not stay resident while they run.
    scan._index_window = scan._batch_window = None

    # Uncapped (streaming shape): target-sized chunks flow through the
    # window, so the first batch arrives after ~one chunk's work
    # instead of ~1/workers of the scan.
    cuts = row_cuts(
        bounds, tail_from, n_rows, cfg.batch_size, cfg.parallel_chunk_bytes
    )

    anchors = [c for c in state.positional_map.entries() if c.rows > tail_from]
    worker_config = cfg.with_overrides(
        scan_workers=1, auto_detect_updates=False
    )
    stamp = scan._ensure_reader().stamp

    def tasks() -> Iterator[ChunkTask]:
        # The byte range of rows [r0, r1), up to the last row's newline;
        # bounds and anchor offsets stay file offsets, so nothing is
        # rebased on either backend.  Tasks are built lazily (the
        # streaming dispatch pulls them as the window frees up), which
        # bounds how many are alive at once.
        for i, (r0, r1) in enumerate(zip(cuts[:-1], cuts[1:])):
            yield ChunkTask(
                index=i,
                entry_name=state.entry.name,
                schema=scan.schema,
                dialect=scan.dialect,
                output_columns=scan.output_columns,
                predicate=scan.predicate,
                config=worker_config,
                bounds=bounds[r0 : r1 + 1],
                crlf=scan._crlf,
                fmt=state.entry.format,
                path=str(state.entry.path),
                byte_start=int(bounds[r0]),
                byte_end=int(bounds[r1]) - 1,
                stamp=stamp,
                # Every task carries every anchor (empty slices
                # included) so that ChunkResult.anchors_used indexes
                # line up globally.
                anchor_chunks=[
                    (c.attrs, c.offsets[r0 : min(c.rows, r1)])
                    for c in anchors
                ],
            )

    worker_metrics: list[QueryMetrics] = []
    watch = Stopwatch()
    r1 = tail_from
    try:
        for i, res in enumerate(_stream(scan, tasks())):
            r0, r1 = cuts[i], cuts[i + 1]
            if res.n_rows != r1 - r0:
                raise RawDataError(
                    f"chunk {i} scanned {res.n_rows} rows, expected "
                    f"{r1 - r0} (file changed mid-scan?)"
                )
            # Refresh recency only for anchors this worker actually
            # jumped from — exactly the chunks the serial scan would
            # have touched — so LRU eviction under budget pressure stays
            # serial-identical.
            for anchor_idx in res.anchors_used:
                state.positional_map.touch(anchors[anchor_idx])
            stitch_one(scan, res, r0)
            _note_chunk(scan, res)
            worker_metrics.append(res.metrics)
            yield from res.batches
    except ScanWorkerError as exc:
        # Raised at the failed chunk's position: it starts at the row
        # the last merged chunk ended on.
        _reraise_in_table_rows(exc, r1)
    finally:
        scan.metrics.absorb_workers(watch.elapsed(), worker_metrics)


def _note_chunk(scan: "RawScan", res: ChunkResult) -> None:
    """Record one merged chunk as a worker span under the query's trace
    (duration measured on the worker's own clock)."""
    telemetry = scan.telemetry
    if telemetry is None:
        return
    telemetry.tracer.add_span(
        scan.trace_parent,
        f"scan-chunk:{res.index}",
        res.elapsed_s,
        table=scan.state.entry.name,
        rows=res.n_rows,
        backend=scan.config.parallel_backend,
    )


def _stream(
    scan: "RawScan", tasks: Iterable[ChunkTask]
) -> Iterator[ChunkResult]:
    """Ordered streaming dispatch with a bounded in-flight window:
    enough results to keep every worker busy while the merge consumes."""
    cfg = scan.config
    window = 2 * cfg.scan_workers
    try:
        if scan.pool is not None:
            # Engine-owned recycled pool: worker threads/processes are
            # amortized across every query of the stream.
            yield from scan.pool.run_streaming(scan_chunk, tasks, window)
        else:
            # Stand-alone scan (no engine pool): ephemeral pool, torn
            # down with the dispatch.
            with ScanPool(cfg.scan_workers, cfg.parallel_backend) as pool:
                yield from pool.run_streaming(scan_chunk, tasks, window)
    except ScanWorkerError:
        telemetry = scan.telemetry
        if telemetry is not None:
            telemetry.registry.counter("scan_worker_errors").inc()
        raise
