"""Routing and orchestration of parallel chunked raw scans.

Chunk results **stream** through an ordered merge: the pool dispatches
chunks with a bounded in-flight window (:meth:`inflight_window`,
``2 * scan_workers``), each chunk's batches are yielded the
moment the chunk is the next in row order, and its positional-map /
cache / statistics contributions are folded into the scan's collectors
incrementally (:func:`repro.parallel.merge.stitch_one`) — so a parallel
cold scan's peak additional memory is O(window x chunk), not
O(result set), and the first batch reaches the consumer while later
chunks are still being scanned.

Two scan shapes go through the pool (everything else stays serial):

* **Cold scans, process backend** (:meth:`ParallelScanDriver.run_cold`)
  — nothing is known about the file: it is split into newline-aligned
  byte ranges and each worker reads, line-indexes, tokenizes and
  converts its own range (parallel I/O included); the merge layer
  stitches bounds, positional spans, cache columns and statistics back
  into the shared :class:`RawTableState`.

* **Unmapped tails** (:meth:`ParallelScanDriver.run_tail`) — the
  adaptive structures cover a row prefix (earlier queries, or an
  append): the serial scan handles the covered prefix with its usual
  cache/map machinery, and the fully-uncovered tail — from the scan
  plan's ``tail_from`` (:mod:`repro.core.scan_plan`) — is fanned out at
  batch-aligned row cuts, each worker reading the byte range of its
  rows.  Workers receive row slices of shared
  positional chunks so anchored tokenizing ("jump ... as close as
  possible") behaves exactly as in the serial scan; batch cuts land on
  the same global ``batch_size`` multiples, so the merged structures —
  and even the reservoir-sampled statistics — match the serial path.
  A *thread-backend cold scan* is this same path with an empty prefix:
  the main thread builds the line index (one vectorized pass) and the
  whole file fans out as the tail, which is what keeps the default
  backend's cache and statistics byte-identical to serial.

With ``scan_workers=1`` no driver is constructed at all; the serial
scan is the degenerate case and stays byte-identical.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, TYPE_CHECKING

from ..batch import Batch
from ..core.metrics import QueryMetrics, Stopwatch
from ..errors import RawDataError, ScanWorkerError
from .chunker import chunk_count, plan_file_chunks
from .merge import LineBoundsAccumulator, stitch_one
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


class ParallelScanDriver:
    """Decides whether a scan parallelizes, and runs the pool if so."""

    def __init__(self, scan: "RawScan") -> None:
        self.scan = scan
        self.config = scan.config
        self.state = scan.state

    # ------------------------------------------------------------------
    # Eligibility.
    # ------------------------------------------------------------------

    def cold_eligible(self) -> bool:
        """True for a process-backend scan of a completely unknown file.

        Only the process backend takes the byte-chunked single-pass cold
        path (workers read and index their own ranges — parallel I/O).
        Thread-backend cold scans deliberately fall through to the
        ordinary flow: the line index is one fast vectorized pass on the
        main thread, after which the *whole file* is a fully-unmapped
        tail and :meth:`run_tail` fans out the expensive work at
        batch-aligned cuts — keeping even cache and statistics content
        byte-identical to the serial scan (byte-range chunks cannot
        guarantee that, because selective tuple formation decides per
        batch and chunk-local batches would differ from serial's).
        """
        scan, state, cfg = self.scan, self.state, self.config
        if cfg.parallel_backend != "process":
            return False
        if not scan.needed_attrs:
            return False  # zero-attribute scans (COUNT(*)) count rows only
        if state.pending_append or scan.row_from:
            return False  # byte chunks cannot start at a table row
        pm = state.positional_map
        if pm.line_bounds is not None or pm.chunk_count:
            return False
        if any(state.coverage_rows(a) for a in scan.needed_attrs):
            return False  # some tier holds rows of a needed attribute
        try:
            size = os.stat(state.entry.path).st_size
        except FileNotFoundError:
            return False  # let the serial path raise its usual error
        chunks = chunk_count(size, cfg.parallel_chunk_bytes, cfg.scan_workers)
        return chunks > 1

    # ------------------------------------------------------------------
    # Cold scan.
    # ------------------------------------------------------------------

    def run_cold(self) -> Iterator[Batch]:
        """Single-pass byte-chunked cold scan (process backend only).

        Workers read, line-index and scan their own byte ranges.  Chunk
        results
        *stream* through an ordered merge: each chunk's batches are
        yielded (and the result dropped) as soon as it is the next in
        row order, with at most the in-flight window of results alive —
        peak memory is O(window x chunk), not O(result set).  Results,
        line bounds and the merged positional map are exactly the
        serial scan's; under a selective predicate the *cache* may hold
        a different (equally valid) prefix of the projection columns,
        because selective tuple formation decides per chunk-local batch.
        """
        scan, state, cfg = self.scan, self.state, self.config
        path = state.entry.path
        # Uncapped chunk count (streaming shape): target-sized chunks
        # flow through the window, so the first batch arrives after ~one
        # chunk's work instead of ~1/workers of the scan.
        specs = plan_file_chunks(path, cfg.parallel_chunk_bytes, None)

        def tasks() -> Iterator[ChunkTask]:
            for spec in specs:
                task = self._base_task(spec.index, first_chunk=spec.index == 0)
                task.byte_start = spec.start
                task.byte_end = spec.end
                yield task

        bounds_acc = LineBoundsAccumulator()
        worker_metrics: list[QueryMetrics] = []
        watch = Stopwatch()
        row_base = 0
        try:
            for res in self._stream(tasks()):
                bounds_acc.add(res)
                stitch_one(scan, res, row_base)
                self._note_chunk(res)
                worker_metrics.append(res.metrics)
                row_base += res.n_rows
                yield from res.batches
            # Every chunk consumed: install the merged line index.  An
            # abandoned scan (consumer closed the cursor mid-stream)
            # skips this — a partial index would silently truncate the
            # table — but the finally below still installs the
            # collected row-prefix structures, as a serial LIMIT
            # abandonment does.
            bounds = bounds_acc.materialize()
            if len(bounds) - 1 != row_base:
                # The chunks disagree with their own line indexes (file
                # changed mid-scan): poison the harvest so the finally
                # below installs nothing built from inconsistent chunks.
                scan.collectors.clear()
                raise RawDataError(
                    f"merged line index has {len(bounds) - 1} rows, "
                    f"chunks scanned {row_base}"
                )
            scan._bounds = bounds
            scan.row_to = row_base
            if cfg.enable_positional_map:
                state.positional_map.set_line_bounds(bounds, bounds_acc.crlf)
                state.pending_append = False
            if cfg.enable_statistics:
                state.statistics.set_row_estimate(row_base)
        except ScanWorkerError as exc:
            _reraise_in_table_rows(exc, row_base)
        finally:
            self._wall = watch.elapsed()
            self._account(worker_metrics, cold=True)
            scan._finalize(row_base)

    # ------------------------------------------------------------------
    # Unmapped-tail scan.
    # ------------------------------------------------------------------

    def run_tail(self, tail_from: int, n_rows: int) -> Iterator[Batch]:
        scan, state, cfg = self.scan, self.state, self.config
        bounds = scan._bounds
        batch = cfg.batch_size
        # The prefix is done and workers read their own byte ranges:
        # whatever the main thread read (the whole file, when it built
        # the line index) need not stay resident while they run.
        scan._index_window = scan._batch_window = None

        tail_bytes = int(bounds[n_rows] - bounds[tail_from])
        # Uncapped chunk count (streaming shape) — see run_cold.
        n_chunks = chunk_count(tail_bytes, cfg.parallel_chunk_bytes, None)
        # Row cuts land on global batch_size multiples so worker-local
        # batches coincide with the serial scan's batches exactly.
        total_batches = -(-(n_rows - tail_from) // batch)
        per_chunk = -(-total_batches // n_chunks)
        cuts = list(range(tail_from, n_rows, per_chunk * batch)) + [n_rows]

        anchors = [
            c for c in state.positional_map.entries() if c.rows > tail_from
        ]

        def make_task(i: int, r0: int, r1: int) -> ChunkTask:
            # The byte range of rows [r0, r1), up to the last row's
            # newline; bounds and anchor offsets stay file offsets, so
            # nothing is rebased on either backend.  Tasks are built
            # lazily (the streaming dispatch pulls them as the window
            # frees up), which bounds how many are alive at once.
            task = self._base_task(i, first_chunk=False)
            task.byte_start = int(bounds[r0])
            task.byte_end = int(bounds[r1]) - 1
            task.bounds = bounds[r0 : r1 + 1]
            task.crlf = scan._crlf
            # Every task carries every anchor (empty slices included) so
            # that ChunkResult.anchors_used indexes line up globally.
            task.anchor_chunks = [
                (c.attrs, c.offsets[r0 : min(c.rows, r1)]) for c in anchors
            ]
            return task

        def tasks() -> Iterator[ChunkTask]:
            for i, (r0, r1) in enumerate(zip(cuts[:-1], cuts[1:])):
                yield make_task(i, r0, r1)

        worker_metrics: list[QueryMetrics] = []
        watch = Stopwatch()
        r1 = tail_from
        try:
            for i, res in enumerate(self._stream(tasks())):
                r0, r1 = cuts[i], cuts[i + 1]
                if res.n_rows != r1 - r0:
                    raise RawDataError(
                        f"chunk {i} scanned {res.n_rows} rows, expected "
                        f"{r1 - r0} (file changed mid-scan?)"
                    )
                # Refresh recency only for anchors this worker actually
                # jumped from — exactly the chunks the serial scan would
                # have touched — so LRU eviction under budget pressure
                # stays serial-identical.
                for anchor_idx in res.anchors_used:
                    state.positional_map.touch(anchors[anchor_idx])
                stitch_one(scan, res, r0)
                self._note_chunk(res)
                worker_metrics.append(res.metrics)
                yield from res.batches
        except ScanWorkerError as exc:
            # Raised at the failed chunk's position: it starts at the
            # row the last merged chunk ended on.
            _reraise_in_table_rows(exc, r1)
        finally:
            self._wall = watch.elapsed()
            self._account(worker_metrics)

    # ------------------------------------------------------------------
    # Shared plumbing.
    # ------------------------------------------------------------------

    def _base_task(self, index: int, first_chunk: bool) -> ChunkTask:
        scan, cfg = self.scan, self.config
        worker_config = cfg.with_overrides(
            scan_workers=1, auto_detect_updates=False
        )
        return ChunkTask(
            index=index,
            path=str(self.state.entry.path),
            stamp=scan._ensure_reader().stamp,
            entry_name=self.state.entry.name,
            schema=scan.schema,
            dialect=scan.dialect,
            output_columns=scan.output_columns,
            predicate=scan.predicate,
            config=worker_config,
            first_chunk=first_chunk,
            fmt=self.state.entry.format,
        )

    def inflight_window(self) -> int:
        """How many chunk results may be in flight or awaiting merge:
        enough to keep every worker busy while the merge consumes."""
        return 2 * self.config.scan_workers

    def _note_chunk(self, res: ChunkResult) -> None:
        """Record one merged chunk as a worker span under the query's
        trace (duration measured on the worker's own clock)."""
        telemetry = self.scan.telemetry
        if telemetry is None:
            return
        telemetry.tracer.add_span(
            self.scan.trace_parent,
            f"scan-chunk:{res.index}",
            res.elapsed_s,
            table=self.state.entry.name,
            rows=res.n_rows,
            backend=self.config.parallel_backend,
        )

    def _stream(
        self, tasks: Iterable[ChunkTask]
    ) -> Iterator[ChunkResult]:
        """Ordered streaming dispatch with a bounded in-flight window."""
        window = self.inflight_window()
        pool = self.scan.pool
        try:
            if pool is not None:
                # Engine-owned recycled pool: worker threads/processes
                # are amortized across every query of the stream.
                yield from pool.run_streaming(scan_chunk, tasks, window)
            else:
                # Stand-alone scan (no engine pool): ephemeral pool, torn
                # down with the dispatch as in the pre-service engine.
                with ScanPool(
                    self.config.scan_workers, self.config.parallel_backend
                ) as ephemeral:
                    yield from ephemeral.run_streaming(
                        scan_chunk, tasks, window
                    )
        except ScanWorkerError:
            telemetry = self.scan.telemetry
            if telemetry is not None:
                telemetry.registry.counter("scan_worker_errors").inc()
            raise

    def _account(
        self, worker_metrics: list[QueryMetrics], cold: bool = False
    ) -> None:
        metrics = self.scan.metrics
        metrics.absorb_workers(self._wall, worker_metrics)
        # Hit/miss counters mirror the serial planner's: a cold scan
        # plans one segment with every needed attribute missing both
        # structures.  (Tail scans already went through the real planner
        # on the main thread; worker-local planning counters are not
        # absorbed, see absorb_workers.)
        if cold:
            needed = len(self.scan.needed_attrs)
            if self.config.enable_cache:
                metrics.cache_misses += needed
            if self.config.enable_positional_map:
                metrics.pm_chunk_misses += needed
