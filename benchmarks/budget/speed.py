"""Machine-speed calibration: why the benchmark's times repeat.

The 2-core reference box does not run at one speed, and it does not
slow down in one way.

* Each core drifts between a fast and a slow state about 28 % apart,
  for seconds to tens of seconds at a time, and everything slows
  together — interpreter loops, numpy kernels, dict lookups.  CPU time
  equals wall time throughout, so it is not steal; it is the core
  itself (a busy sibling thread, most likely).
* On top of that the memory side has states of its own: for seconds at
  a time, allocating and streaming a megabyte takes 30-50 % longer
  while the interpreter loop takes 10 % longer.  Ops that read and
  decode the raw file on every call (``point``, ``projection``) follow
  the memory state, ops that aggregate cached columns follow the core.
* For tens of minutes at a time the whole host is busy: the loop runs
  1.3-2x slow, native code 1.3-1.4x, and no reading tracks every op.
  Nothing here cures that; the bounds in ``BENCHMARK.json`` are sized
  for it (``spread.py`` shows which kind of day it is).

A 10 s timed phase lands in one state or another, or straddles a flip,
and two runs of identical code disagree by 10-25 % on *every* latency
metric (this, not sample counts alone, is what sank the first
canonical benchmark).  Scaling by the interpreter loop alone — this
benchmark's first attempt — left ``warm_mix``'s ``point_p50_ms``
spreading 5 % over one set of ten runs and 15 % over the next, because
a memory-bound op slows by more than the loop does.

So the benchmark measures the machine while it measures the engine.
Before each op it takes a :func:`slowdown` reading on the core the
work is pinned to: two fixed kernels, one interpreter-bound and one
memory-bound, each timed against its nominal duration and blended
``1 - MEMORY_SHARE`` to ``MEMORY_SHARE``.  An op's reported time is
its wall time divided by the reading — milliseconds *at reference
speed*.  One blend serves every op class: in 30 calibration runs of
``warm_mix`` a share of 0.15 cut the spread of ``point_p50_ms`` from
5.5 % to 1.6 % and of ``projection_p50_ms`` from 6.3 % to 3.1 %, and
cost ``filter_agg_p50_ms`` (no memory traffic to speak of) 2.6 % ->
3.9 %; per-class shares would fit a little better and would go stale
with the first engine change, and a third, native-code kernel (a C
substring scan) bought nothing on any workload.  The kernels live
here, outside ``src/``, so no engine change can move them; both sides
of any comparison are scaled the same way.  Raw wall times are printed
next to the scaled ones.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

#: Seconds the two kernels take on the reference box in its fast,
#: uncontended state (the memory kernel with the caches an engine op
#: leaves behind, not back to back).
NOMINAL_INTERP_S = 0.00075
NOMINAL_MEMORY_S = 0.00014

#: Weight of the memory kernel's slowdown in a reading.
MEMORY_SHARE = 0.15

#: A reading is the median of this many neighbouring readings.
SMOOTH = 5

#: What the memory kernel streams: 1.15 MB of CSV-like ASCII, decoded
#: into a fresh string the way ``rawio`` decodes a raw file (read,
#: allocate, page-fault, write).
_BLOB = b"abcdefghij,1234567,xyz\n" * 50_000


def interp_kernel() -> float:
    """Time a fixed pure-Python loop (about 0.75 ms)."""
    t0 = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return perf_counter() - t0


def memory_kernel() -> float:
    """Time one allocate-and-stream pass over ``_BLOB`` (about 0.14 ms)."""
    t0 = perf_counter()
    _BLOB.decode("utf-8")
    return perf_counter() - t0


def slowdown() -> float:
    """How many times slower than reference speed this core runs now."""
    interp = interp_kernel() / NOMINAL_INTERP_S
    memory = memory_kernel() / NOMINAL_MEMORY_S
    return (1.0 - MEMORY_SHARE) * interp + MEMORY_SHARE * memory


def smooth(readings: list[float]) -> list[float]:
    """Running median: one reading is itself a noisy sample."""
    half = SMOOTH // 2
    last = len(readings)
    return [
        statistics.median(readings[max(0, i - half) : min(last, i + half + 1)])
        for i in range(last)
    ]


def pin(which: int) -> None:
    """Pin this process to one of its allowed CPUs (``0`` first, ``-1``
    last), so the kernels and the work share a core.  A platform that
    cannot pin runs unpinned."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[which]})
    except (AttributeError, OSError):
        pass
