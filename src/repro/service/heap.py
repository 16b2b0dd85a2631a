"""The process keeps the heap its scans free.

A cold scan allocates a few MB of short-lived arrays: the file window,
the ``\\n`` and delimiter positions, the offset matrices, the converted
columns.  glibc's malloc gives freed memory back to the OS in two ways:
a block larger than ``M_MMAP_THRESHOLD`` is its own mapping, unmapped on
free, and free space at the top of the heap past ``M_TRIM_THRESHOLD``
is trimmed.  Either way the next scan touches those pages for the first
time again and takes a minor page fault for each, about 2.5 us per
4 KiB page on a VM: filling a fresh 8 MiB mapping took 5.5 ms, against
0.42 ms for resident memory.  That was about 1 850 faults, a quarter of
a cold point lookup over 24 000 rows.

:func:`retain_heap` sets both thresholds once per process, when the
first engine starts, so freed scan memory stays in the heap for the
next scan to reuse.  They are constants, not knobs: the mmap threshold
is glibc's own ceiling for it, and the trim threshold is the smallest
that took the fault count of a repeated cold point lookup to 0
(``tools/fault_tax.py``).  Where the C library has no ``mallopt`` it is
a no-op.  The cost is resident memory: the heap keeps up to
:data:`TRIM_THRESHOLD` of free space instead of returning it.
"""

from __future__ import annotations

import ctypes
import threading

#: ``mallopt`` parameter numbers, from glibc's ``malloc.h``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: Blocks up to this size come from the heap, not their own mapping
#: (glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit systems).
MMAP_THRESHOLD = 32 << 20
#: Free space the heap keeps at its top instead of trimming it.
TRIM_THRESHOLD = 16 << 20

_lock = threading.Lock()
#: ``None`` until the first engine asks; then whether the policy holds.
_applied: bool | None = None


def _mallopt():
    """The C library's ``mallopt``, or ``None`` where it has none."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:  # pragma: no cover - no C library to load
        return None
    return getattr(libc, "mallopt", None)


def retain_heap() -> bool:
    """Apply the heap policy once per process; whether it holds."""
    global _applied
    with _lock:
        if _applied is None:
            mallopt = _mallopt()
            _applied = mallopt is not None and all(
                mallopt(param, value) == 1
                for param, value in (
                    (M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                    (M_TRIM_THRESHOLD, TRIM_THRESHOLD),
                )
            )
        return _applied
