"""What one raw scan will do, decided once, as data.

:func:`plan_scan` runs when the scan has its line index — under the
table lock the scan already holds — and returns a frozen
:class:`ScanPlan`.  The scan reads that one plan; it never decides
again.

**Segments.**  ``[row_from, row_to)`` is split at the tiers' coverage
boundaries.  Per segment and needed attribute the first tier of the
table's ladder (:attr:`repro.core.table_state.RawTableState.tiers`)
that covers it is *pinned* and read from, so an eviction while the
scan runs neither raises nor changes the answer; whatever no tier
covers is tokenized.

**Resident scans** have a predicate, and every segment they read pins
all its predicate attributes in a binary tier (cache or columnstore)
and has nothing to tokenize.  Their selection strides double, up to
:data:`MAX_STRIDE_BATCHES` batches; any other scan steps one batch at a
time.  Either way a stride acquires its projection-only attributes
(``proj_attrs``) once, for its survivors only: a binary tier's rows are
taken, and a positional-map jump is one read from the first survivor
to the last — split at window edges where it would exceed
:data:`MAX_READ_BYTES` — one offsets gather and one conversion.  What a
stride learns is still learned per ``batch_size`` window: a window
whose every row survives is collected and observed whole, on its own.

**Window skipping.**  Cache entries and promoted columns of INTEGER,
FLOAT and DATE columns carry a synopsis — per ``batch_size`` window
min / max / NULL count (:mod:`repro.core.synopsis`) — and the plan
tests the predicate's ``col op literal`` / ``BETWEEN`` / ``IN``
conjuncts against it.  It skips a window that cannot qualify only where
reading it would learn nothing: every segment the window overlaps pins
all predicate attributes in a binary tier and has nothing to tokenize,
and selective tuple formation is on (so a window without survivors
converts, collects and observes nothing).  A skipped window is neither
acquired, masked nor read, so no tier, statistic or answer changes —
only time, and ``metrics.windows_skipped``.  ``runs`` holds the kept
row ranges; strides restart at one batch for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .positional_map import PositionalChunk
from .synopsis import column_intervals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raw_scan import RawScan

#: A resident scan's selection stride doubles from one batch up to this
#: many batches, so a stride's temporaries stay bounded on big tables.
MAX_STRIDE_BATCHES = 64

#: The most file bytes one positional-map jump over a stride reads in
#: one positioned read (first acquired row through last): a longer
#: stride is read in pieces cut at window edges, so a 64-batch stride
#: over wide rows never holds hundreds of MB.  A single window is read
#: whole, whatever its size.
MAX_READ_BYTES = 8 << 20


@dataclass
class Segment:
    """A row range over which every attribute has one acquisition source,
    pinned when the scan planned."""

    start: int
    end: int
    #: Binary tiers: attribute -> ``(tier, entry)``, the cache entry or
    #: the promoted column (arrays mapped) ``tier.read`` serves it from.
    resident: dict[int, tuple] = field(default_factory=dict)
    chunk_hits: dict[int, PositionalChunk] = field(default_factory=dict)
    tokenize_attrs: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class ScanPlan:
    """One scan's decisions (see the module docstring)."""

    #: Table rows ``[row_from, row_to)``.
    row_from: int
    row_to: int
    batch_size: int
    segments: tuple[Segment, ...]
    #: Attributes the predicate reads, in attribute order.
    pred_attrs: tuple[int, ...]
    #: Projection-only attributes (needed, not read by the predicate),
    #: acquired once per stride for its survivors.
    proj_attrs: tuple[int, ...]
    #: Strides double (see :meth:`strides`).
    resident: bool
    #: The kept row ranges ``[r0, r1)``.
    runs: tuple[tuple[int, int], ...]
    #: The attribute-combination chunk to index at the end (paper's
    #: default policy): ``(attr, chunk)`` per needed attribute.
    combination: tuple[tuple[int, PositionalChunk], ...] | None

    def strides(self) -> Iterator[tuple[int, int]]:
        """The selection strides ``[s0, s1)``, in row order.  They cut
        on table-wide ``batch_size`` multiples; the first stride of each
        run is its first batch, a resident scan doubles each later one,
        any other steps one batch at a time."""
        batch = self.batch_size
        max_stride = batch * (MAX_STRIDE_BATCHES if self.resident else 1)
        for r0, r1 in self.runs:
            stride = batch
            s0, s1 = r0, r0 - r0 % batch + batch
            while s0 < r1:
                s1 = min(s1, r1)
                yield s0, s1
                stride = min(2 * stride, max_stride)
                s0, s1 = s1, s1 + stride

    def window_edges(self, r0: int, r1: int) -> list[int]:
        """``r0``, the table-wide ``batch_size`` cuts inside ``(r0,
        r1)``, and ``r1``: the edges of the windows rows ``[r0, r1)``
        learn in."""
        batch = self.batch_size
        return [r0, *range(r0 - r0 % batch + batch, r1, batch), r1]


def plan_scan(scan: "RawScan", bounds: np.ndarray) -> ScanPlan:
    """Plan ``scan`` over the table rows its line index ``bounds``
    delimits: pin each segment's sources (counting cache and map hits
    and misses), then decide the combination chunk, residency and the
    kept windows (counting the skipped ones)."""
    config = scan.config
    n_rows = max(len(bounds) - 1, 0)
    row_from = min(scan.row_from, n_rows)
    segments = _pin_segments(scan, row_from, n_rows)
    needed = scan.needed_attrs
    # Paper's default policy: index the requested attribute combination
    # when every requested attribute lives in a different, fully
    # covering chunk.
    combination = None
    if (
        config.enable_positional_map
        and config.pm_combination_policy
        and len(needed) > 1
        and n_rows
    ):
        pm = scan.state.positional_map
        covers = [(a, pm.best_cover(a)) for a in needed]
        chunks = {id(c) for __, c in covers}
        if len(chunks) == len(needed) and all(
            c is not None and c.rows >= n_rows for __, c in covers
        ):
            combination = tuple(covers)
    pred_attrs = scan.pred_attrs
    resident = (
        scan.predicate is not None
        and all(a in s.resident for s in segments for a in pred_attrs)
        and not any(seg.tokenize_attrs for seg in segments)
    )
    return ScanPlan(
        row_from=row_from,
        row_to=n_rows,
        batch_size=config.batch_size,
        segments=tuple(segments),
        pred_attrs=tuple(pred_attrs),
        proj_attrs=tuple(a for a in needed if a not in pred_attrs),
        resident=resident,
        runs=tuple(_kept_runs(scan, segments, row_from, n_rows)),
        combination=combination,
    )


def _pin_segments(scan: "RawScan", row_from: int, n_rows: int) -> list:
    """Split ``[row_from, n_rows)`` at the tiers' coverage boundaries
    and pin, per segment and attribute, the first tier of the ladder
    that covers it; the rest are tokenized."""
    state, config, metrics = scan.state, scan.config, scan.metrics
    needed = scan.needed_attrs
    boundaries = {row_from, n_rows}
    for attr in needed:
        for tier in state.tiers:
            rows = tier.coverage_rows(attr)
            if row_from < rows < n_rows:
                boundaries.add(rows)
    cuts = sorted(boundaries)

    segments = []
    for start, end in zip(cuts[:-1], cuts[1:]):
        seg = Segment(start, end)
        for attr in needed:
            for tier in state.tiers:
                entry = tier.pin(attr, end, metrics)
                if entry is None:
                    continue
                if tier is state.positional_map:
                    seg.chunk_hits[attr] = entry
                else:
                    seg.resident[attr] = (tier, entry)
                break
            else:
                seg.tokenize_attrs.add(attr)
        # A columnstore hit counts as a cache miss.
        if config.enable_cache:
            hits = sum(t is state.cache for t, _ in seg.resident.values())
            metrics.cache_hits += hits
            metrics.cache_misses += len(needed) - hits
        if config.enable_positional_map:
            metrics.pm_chunk_hits += len(seg.chunk_hits)
            metrics.pm_chunk_misses += len(seg.tokenize_attrs)
        segments.append(seg)
    return segments


def _kept_runs(
    scan: "RawScan", segments: list[Segment], row_from: int, row_to: int
) -> list[tuple[int, int]]:
    """``[row_from, row_to)`` less the windows the predicate's synopses
    rule out where skipping loses nothing (see the module docstring)."""
    whole = [(row_from, row_to)]
    if not (
        scan.predicate is not None
        and scan.config.selective_tuple_formation
        and row_from < row_to
    ):
        return whole
    schema = scan.schema
    prunable = [
        (schema.position(name), intervals)
        for name, intervals in column_intervals(scan.predicate)
    ]
    if not prunable:
        return whole
    # Window ``i`` is rows ``(k0 + i) * batch_size`` up to the next cut,
    # clipped to ``[row_from, row_to)``; it may hold a row the predicate
    # keeps where ``keep[i + 1]`` (one False either side).
    batch_size = scan.config.batch_size
    k0 = row_from // batch_size
    keep = np.zeros(-(-row_to // batch_size) - k0 + 2, dtype=np.bool_)
    for seg in segments:
        lo, hi = max(seg.start, row_from), min(seg.end, row_to)
        if lo < hi:
            k_lo, k_hi = lo // batch_size, (hi - 1) // batch_size + 1
            keep[k_lo - k0 + 1 : k_hi - k0 + 1] |= _segment_windows(
                seg, scan.pred_attrs, prunable, k_lo, k_hi, batch_size
            )
    skipped = len(keep) - 2 - int(np.count_nonzero(keep))
    if not skipped:
        return whole
    scan.metrics.windows_skipped += skipped
    edges = np.flatnonzero(keep[1:] != keep[:-1]).tolist()
    return [
        (
            max(row_from, (k0 + a) * batch_size),
            min(row_to, (k0 + b) * batch_size),
        )
        for a, b in zip(edges[::2], edges[1::2])
    ]


def _segment_windows(
    seg: Segment,
    pred_attrs: list[int],
    prunable: list,
    k_lo: int,
    k_hi: int,
    batch_size: int,
) -> np.ndarray | bool:
    """Per window ``k_lo .. k_hi - 1``: may its rows in ``seg`` hold one
    the predicate keeps, or teach the engine something?"""
    if seg.tokenize_attrs or not all(a in seg.resident for a in pred_attrs):
        return True
    possible = np.ones(k_hi - k_lo, dtype=np.bool_)
    for attr, intervals in prunable:
        synopsis = seg.resident[attr][1].synopsis
        if synopsis is not None and synopsis.window_rows == batch_size:
            possible &= synopsis.possible(intervals)[k_lo:k_hi]
    return possible
