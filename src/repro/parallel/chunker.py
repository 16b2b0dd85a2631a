"""Newline-aligned chunking of raw CSV files.

The scan pool needs the file cut into pieces that (a) together cover it
exactly once and (b) never split a record: every boundary sits at offset
0, at end-of-file, or immediately *after* a ``\\n``.  Because a CRLF
pair ends with the ``\\n``, a boundary can never fall between ``\\r``
and ``\\n`` — chunking is CRLF-safe by construction, and the per-record
``\\r`` trim (:func:`repro.rawio.tokenizer.trim_cr`) sees every pair
whole.  A final unterminated record belongs to the last chunk.

:func:`plan_file_chunks` produces byte ranges straight off the file:
seek to an approximate cut, scan forward to the next record boundary.
Workers read their own ranges (the process backend's cold scan).
Row-structured scans (tails, and every thread-backend scan) don't chunk
by size: the driver cuts at known batch-aligned row boundaries instead,
so worker batches coincide with the serial scan's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..errors import RawDataError

#: Read granularity while scanning forward for a newline.
_PROBE_BLOCK = 64 * 1024


@dataclass(frozen=True)
class ChunkSpec:
    """One half-open slice ``[start, end)`` of a raw file, in bytes."""

    index: int
    start: int
    end: int


def chunk_count(
    total_size: int, target_chunk_size: int, cap: int | None
) -> int:
    """How many chunks to cut ``total_size`` into.

    Never so many that chunks fall below ``target_chunk_size`` — the
    knob that keeps dispatch overhead amortized; anything smaller than
    two target chunks stays whole.  ``cap`` limits the count (one per
    worker — the right shape when every result is collected before the
    merge); ``None`` means uncapped, the *streaming* shape: many
    target-sized chunks flow through the bounded in-flight window, so
    the first chunk — and with it the first result batch — completes
    after ~one chunk's work instead of ~1/workers of the whole scan.
    """
    if total_size <= 0 or target_chunk_size <= 0:
        return 1
    n = total_size // target_chunk_size
    if cap is not None:
        n = min(cap, n)
    return max(1, n)


def _specs_from_cuts(cuts: list[int]) -> list[ChunkSpec]:
    # Deduplicate (several approximate cuts can land on the same
    # boundary when lines are long) while preserving order.
    unique = sorted(set(cuts))
    return [
        ChunkSpec(i, start, end)
        for i, (start, end) in enumerate(zip(unique[:-1], unique[1:]))
        if end > start
    ]


def plan_file_chunks(
    path: str | Path, target_chunk_bytes: int, max_chunks: int | None
) -> list[ChunkSpec]:
    """Split ``path`` into newline-aligned byte-range chunks.

    Seeks to ``i * size / n`` for each interior cut and scans forward to
    one past the next ``\\n``; a cut that finds no newline before EOF
    collapses into the previous chunk.
    """
    path = Path(path)
    try:
        size = os.stat(path).st_size
    except FileNotFoundError:
        raise RawDataError(f"raw file not found: {path}") from None
    n = chunk_count(size, target_chunk_bytes, max_chunks)
    if n <= 1:
        return [ChunkSpec(0, 0, size)]
    cuts = [0, size]
    with open(path, "rb") as f:
        for i in range(1, n):
            cuts.append(_align_forward_file(f, size * i // n, size))
    return _specs_from_cuts(cuts)


def _align_forward_file(f, offset: int, size: int) -> int:
    """First record boundary at or after ``offset`` (file variant)."""
    if offset <= 0:
        return 0
    f.seek(offset)
    pos = offset
    while pos < size:
        block = f.read(_PROBE_BLOCK)
        if not block:
            break
        nl = block.find(b"\n")
        if nl != -1:
            return pos + nl + 1
        pos += len(block)
    return size


