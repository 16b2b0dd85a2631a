"""How many pieces a parallel scan cuts its rows into.

The pool never cuts by bytes alone: the scan plan's tail is split at
batch-aligned *row* boundaries (:func:`repro.parallel.driver.run_tail`),
so worker batches coincide with the serial scan's and every cut sits
after a record's newline — CRLF pairs and unterminated final records
stay whole.  :func:`chunk_count` decides how many cuts the tail's byte
size is worth and :func:`row_cuts` places them.
"""

from __future__ import annotations

import numpy as np


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


def row_cuts(
    bounds: np.ndarray,
    tail_from: int,
    n_rows: int,
    batch_size: int,
    target_chunk_size: int,
) -> list[int]:
    """Row cuts of the tail ``[tail_from, n_rows)`` over line index
    ``bounds``: chunk ``i`` holds rows ``[cuts[i], cuts[i + 1])`` and
    reads bytes ``[bounds[cuts[i]], bounds[cuts[i + 1]] - 1)``.

    Uncapped (streaming shape).  Every inner cut lies a ``batch_size``
    multiple past ``tail_from`` (itself one), so worker-local batches
    coincide with the serial scan's, and a cut is a row start, so a
    chunk never splits a record.
    """
    tail_bytes = int(bounds[n_rows] - bounds[tail_from])
    n_chunks = chunk_count(tail_bytes, target_chunk_size, None)
    total_batches = -(-(n_rows - tail_from) // batch_size)
    per_chunk = -(-total_batches // n_chunks)
    return list(range(tail_from, n_rows, per_chunk * batch_size)) + [n_rows]
