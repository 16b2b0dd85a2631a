"""Execution-time breakdown accounting (Figure 3).

The demo's Query Execution Breakdown panel splits a query's wall-clock
time into six components; :class:`QueryMetrics` accumulates exactly those
buckets while a query runs:

* ``io``          — reading raw/binary bytes from disk
* ``tokenizing``  — locating field boundaries (delimiter scanning)
* ``parsing``     — extracting field text once boundaries are known
                    (the positional-map fast path pays this instead of
                    tokenizing)
* ``convert``     — text -> binary conversion of needed fields
* ``processing``  — everything the unchanged query plan does above the
                    scan (filters, joins, aggregates, sorting)
* ``nodb``        — PostgresRaw-specific overhead: maintaining the
                    positional map, the cache and on-the-fly statistics

Boundary discovery (the state machine, the delimiter-position kernels) is
``tokenizing``; turning located bytes into field text — on the
positional-map jump path, or for the columns a query reads out of
freshly tokenized rows — is ``parsing``.  This matches the paper's
observation that the map converts tokenizing work into (cheaper) direct
parsing.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


class BreakdownComponent(enum.Enum):
    """The six stacked-bar components of Figure 3."""

    IO = "io"
    TOKENIZING = "tokenizing"
    PARSING = "parsing"
    CONVERT = "convert"
    PROCESSING = "processing"
    NODB = "nodb"


@dataclass
class QueryMetrics:
    """Per-query timing and volume counters.

    The six ``*_seconds`` buckets plus the :attr:`unattributed_seconds`
    residual sum **exactly** to ``total_seconds`` once
    :meth:`settle_processing` has run: processing absorbs the wall time
    no data-access bucket claimed, and the residual records the
    remaining drift (negative when instrumented sections overlapped the
    measured wall clock).
    """

    io_seconds: float = 0.0
    tokenizing_seconds: float = 0.0
    parsing_seconds: float = 0.0
    convert_seconds: float = 0.0
    processing_seconds: float = 0.0
    nodb_seconds: float = 0.0
    total_seconds: float = 0.0

    #: ``total_seconds`` minus the six buckets, settled alongside
    #: processing — the bookkeeping residual that makes the Figure 3
    #: stack a partition of the wall clock instead of an approximation.
    unattributed_seconds: float = 0.0

    #: Wall-clock seconds from :meth:`begin` until the first result
    #: batch reached the consumer (the streaming path's headline
    #: number).  ``None`` until a first batch is delivered; for an
    #: incremental scan this is far below ``total_seconds``.
    time_to_first_batch: float | None = None

    bytes_read: int = 0
    rows_scanned: int = 0
    fields_tokenized: int = 0
    fields_parsed_via_map: int = 0
    fields_converted: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pm_chunk_hits: int = 0
    pm_chunk_misses: int = 0
    #: ``batch_size`` windows a scan skipped because the synopses of
    #: its predicate columns ruled every row of them out.
    windows_skipped: int = 0
    #: Collector runs (map spans and cache columns) a scan's harvest
    #: found invalidated — learned work dropped because a block did not
    #: continue its run (window skipping and abandoned ``LIMIT`` scans
    #: may do so legitimately; a full scan should not).
    collector_invalidations: int = 0

    #: Seconds spent building scan kernels (:mod:`repro.kernels`) on
    #: kernel-cache misses.  Informational detail of the ``nodb``
    #: bucket — the time itself is charged there, so the Figure 3
    #: stack (and its ``unattributed_seconds`` invariant) is unchanged.
    kernel_build_seconds: float = 0.0

    _start: float | None = field(default=None, repr=False)

    def add(self, component: BreakdownComponent, seconds: float) -> None:
        attr = f"{component.value}_seconds"
        setattr(self, attr, getattr(self, attr) + seconds)

    @contextmanager
    def time(self, component: BreakdownComponent) -> Iterator[None]:
        """Accumulate the elapsed time of the ``with`` body into a bucket."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(component, time.perf_counter() - t0)

    def begin(self) -> None:
        self._start = time.perf_counter()

    def end(self) -> None:
        if self._start is not None:
            self.total_seconds = time.perf_counter() - self._start
            self._start = None

    def mark_first_batch(self) -> None:
        """Record time-to-first-batch (idempotent; needs an open begin())."""
        if self._start is not None and self.time_to_first_batch is None:
            self.time_to_first_batch = time.perf_counter() - self._start

    def component_seconds(self) -> dict[str, float]:
        """The Figure 3 stack as an ordered dict."""
        return {
            "processing": self.processing_seconds,
            "io": self.io_seconds,
            "convert": self.convert_seconds,
            "parsing": self.parsing_seconds,
            "tokenizing": self.tokenizing_seconds,
            "nodb": self.nodb_seconds,
        }

    def accounted_seconds(self) -> float:
        return sum(self.component_seconds().values())

    def settle_processing(self) -> None:
        """Processing = wall time not attributed to data-access buckets.

        Figure 3's split between "what any DBMS would do anyway" and the
        raw-data-access overheads; call after :meth:`end`.  Also settles
        :attr:`unattributed_seconds` so the six buckets plus the
        residual sum exactly to ``total_seconds`` (the residual is only
        nonzero — negative — when the attributed buckets overshoot the
        measured wall clock, since processing cannot go below zero).
        """
        attributed = (
            self.io_seconds
            + self.tokenizing_seconds
            + self.parsing_seconds
            + self.convert_seconds
            + self.nodb_seconds
        )
        self.processing_seconds = max(self.total_seconds - attributed, 0.0)
        self.unattributed_seconds = self.total_seconds - (
            attributed + self.processing_seconds
        )

    def merge(self, other: "QueryMetrics") -> None:
        """Fold another query's counters into this one (workload totals)."""
        for name in (
            "io_seconds",
            "tokenizing_seconds",
            "parsing_seconds",
            "convert_seconds",
            "processing_seconds",
            "nodb_seconds",
            "total_seconds",
            "unattributed_seconds",
            "bytes_read",
            "rows_scanned",
            "fields_tokenized",
            "fields_parsed_via_map",
            "fields_converted",
            "kernel_build_seconds",
            "cache_hits",
            "cache_misses",
            "pm_chunk_hits",
            "pm_chunk_misses",
            "windows_skipped",
            "collector_invalidations",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class Stopwatch:
    """Minimal wall-clock timer for harness-level measurements."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def restart(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._t0
        self._t0 = now
        return elapsed
