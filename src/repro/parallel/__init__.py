"""Parallel chunked raw-scan subsystem.

OLA-RAW's observation — in-situ engines become practical at scale only
with parallel chunked raw access — applied to the PostgresRaw scan.
There is one parallel path: the scan plan's fully-unmapped tail
(:attr:`repro.core.scan_plan.ScanPlan.tail_from`; the whole file on a
cold scan) fans out at batch-aligned row cuts.

* :mod:`repro.parallel.chunker` — how many chunks a tail is worth,
  and its row cuts;
* :mod:`repro.parallel.pool` — the scan pool (threads by default,
  ``multiprocessing`` via ``parallel_backend="process"``);
* :mod:`repro.parallel.worker` — per-chunk scans reusing the serial
  plan and walk over chunk-local state;
* :mod:`repro.parallel.merge` — deterministic stitching of per-chunk
  positional maps, cache columns and statistics back into the shared
  :class:`repro.core.table_state.RawTableState`;
* :mod:`repro.parallel.driver` — ``run_tail``, which cuts the tail,
  streams its chunks through the pool and merges them in row order.

Enable with ``PostgresRawConfig(scan_workers=4)``; results and every
learned structure are identical to the serial scan, on either backend.
"""

from .chunker import chunk_count, row_cuts
from .pool import ScanPool
from .worker import ChunkResult, ChunkTask, scan_chunk

__all__ = [
    "ChunkResult",
    "ChunkTask",
    "ScanPool",
    "chunk_count",
    "row_cuts",
    "scan_chunk",
]
