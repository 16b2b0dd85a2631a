"""Deterministic stitching of per-chunk results into shared state.

Chunk results are merged strictly in chunk (= row) order, so the merged
structures are independent of worker scheduling.  The merge is
*streaming*: :func:`stitch_one` folds a single chunk's harvest into the
scan's collectors the moment it is the next in row order, so the driver
can yield that chunk's batches and drop the result immediately — no
collect-all barrier, peak memory bounded by the in-flight window:

* **Line bounds** — per-chunk indexes are already file byte offsets, so
  they concatenate; the result is identical to indexing the whole file
  at once (chunk boundaries sit exactly after newlines).
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

import numpy as np

from ..core.raw_scan import RawScan
from ..errors import RawDataError
from .worker import ChunkResult


class LineBoundsAccumulator:
    """Global line index from per-chunk indexes, built one chunk at a
    time (cold scans).

    ``bounds[i][:-1]`` continues exactly where the previous chunk's
    index ended, because every chunk boundary is one past a newline; the
    final chunk contributes the end sentinel (including the
    unterminated-last-record case, where it is the file size + 1).
    """

    def __init__(self) -> None:
        self._starts: list[np.ndarray] = []
        self._sentinel: int | None = None
        #: Some chunk holds a CRLF record end (see ``PositionalMap.crlf``).
        self.crlf = False

    def add(self, res: ChunkResult) -> None:
        if res.bounds is None:
            raise RawDataError("chunk result carries no line bounds")
        local = res.bounds
        self.crlf = self.crlf or res.crlf
        if len(local) > 1:
            self._starts.append(local[:-1])
            self._sentinel = int(local[-1])
        elif self._sentinel is None:
            # Zero-row chunk (header-only file): its lone element is
            # already the end sentinel — serial build_line_index returns
            # [len + 1] for row-less content, and dropping it here would
            # make a later append re-tokenize the header line as data.
            self._sentinel = int(local[0])

    def materialize(self) -> np.ndarray:
        if self._sentinel is None:
            return np.zeros(1, dtype=np.int64)
        pieces = self._starts + [
            np.asarray([self._sentinel], dtype=np.int64)
        ]
        return np.concatenate(pieces).astype(np.int64, copy=False)


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
