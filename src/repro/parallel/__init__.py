"""Parallel chunked raw-scan subsystem.

OLA-RAW's observation — in-situ engines become practical at scale only
with parallel chunked raw access — applied to the PostgresRaw scan:

* :mod:`repro.parallel.chunker` — newline-aligned, CRLF-safe byte/char
  range chunking of raw files;
* :mod:`repro.parallel.pool` — the scan pool (threads by default,
  ``multiprocessing`` via ``parallel_backend="process"``);
* :mod:`repro.parallel.worker` — per-chunk scans reusing the serial
  selective tokenize/parse machinery over chunk-local state;
* :mod:`repro.parallel.merge` — deterministic stitching of per-chunk
  positional maps, cache columns and statistics back into the shared
  :class:`repro.core.table_state.RawTableState`;
* :mod:`repro.parallel.driver` — routing (cold scans and fully-unmapped
  tails go through the pool; ``scan_workers=1`` keeps the serial path
  untouched).

Enable with ``PostgresRawConfig(scan_workers=4)``; results and the
merged positional map are identical to the serial scan.
"""

from .chunker import ChunkSpec, chunk_count, plan_file_chunks
from .pool import ScanPool
from .worker import ChunkResult, ChunkTask, scan_chunk

__all__ = [
    "ChunkSpec",
    "ChunkResult",
    "ChunkTask",
    "ScanPool",
    "chunk_count",
    "plan_file_chunks",
    "scan_chunk",
]
