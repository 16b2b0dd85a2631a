"""Deterministic stitching of per-chunk results into shared state.

Chunk results are merged strictly in chunk (= row) order, so the merged
structures are independent of worker scheduling.  The merge is
*streaming*: :func:`stitch_one` folds a single chunk's harvest into the
scan's collectors the moment it is the next in row order, so the driver
can yield that chunk's batches and drop the result immediately — no
collect-all barrier, peak memory bounded by the in-flight window:

* **Collectors** (positional map offsets, cache columns) — each
  worker's packed collectors are absorbed into the scan's own, whose
  row-contiguity check enforces the same prefix semantics as the serial
  scan; installation then happens through the scan's ordinary
  :meth:`RawScan._finalize`, preserving budget/LRU/protection behavior
  ("Figure 2" adaptivity) across parallel and serial paths.
* **Statistics** — each worker's log of full-column vectors is replayed
  into the shared store in row order, feeding the same reservoir
  sampler the serial scan feeds.
"""

from __future__ import annotations

from ..core.raw_scan import RawScan
from .worker import ChunkResult


def stitch_one(scan: RawScan, res: ChunkResult, row_base: int) -> None:
    """Fold one worker's harvest into ``scan``'s collectors.

    Must be called in chunk (= row) order — the collectors' contiguity
    check enforces it.  After the last chunk, the scan's ordinary
    ``_finalize`` installs everything — the merge layer never touches
    the positional map or cache directly.
    """
    scan.collectors.absorb(res.collectors, row_base)
    for name, vector in res.stats_log:
        scan.state.statistics.observe(name, vector)
