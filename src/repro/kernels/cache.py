"""Signature-keyed cache of built scan kernels.

Kernels are built per (dialect, schema, attribute-span) signature and
requested once per batch — the cache makes the build cost O(distinct
signatures), LRU-bounds the footprint (:data:`KERNEL_CACHE_ENTRIES`) and
feeds hit/miss/build-time counters to the telemetry registry.

A scan with no engine (a bare :class:`repro.core.raw_scan.RawScan`)
uses the per-process cache, :func:`process_cache`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from .kernel import KernelSignature, ScanKernel

#: Default capacity: distinct (dialect, schema, attribute-span)
#: signatures held before LRU eviction.  Kernels are small; 64
#: comfortably covers many tables x many query shapes.
KERNEL_CACHE_ENTRIES = 64


class KernelCache:
    """Thread-safe LRU cache of :class:`ScanKernel` keyed by signature."""

    def __init__(
        self, max_entries: int = KERNEL_CACHE_ENTRIES, registry=None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[KernelSignature, ScanKernel] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.build_seconds = 0.0
        self._hits_c = None
        self._misses_c = None
        self._build_c = None
        if registry is not None:
            self.attach_registry(registry)

    def attach_registry(self, registry) -> None:
        """Mirror counters into a telemetry ``MetricsRegistry``.

        The instruments are no-ops on a telemetry-disabled engine; the
        plain attributes above keep counting either way so the governor
        panel's collector stays useful.
        """
        self._hits_c = registry.counter("kernel_cache_hits")
        self._misses_c = registry.counter("kernel_cache_misses")
        self._build_c = registry.counter("kernel_build_seconds_total")

    def get(self, signature: KernelSignature) -> tuple[ScanKernel, float]:
        """The kernel for ``signature`` as ``(kernel, build_seconds)``.

        ``build_seconds`` is 0.0 on a hit; on a miss the kernel is
        built under the lock (concurrent scans of one signature build
        once) and the caller attributes the returned seconds to its
        ``nodb`` bucket.
        """
        with self._lock:
            kernel = self._entries.get(signature)
            if kernel is not None:
                self._entries.move_to_end(signature)
                self.hits += 1
                if self._hits_c is not None:
                    self._hits_c.inc()
                return kernel, 0.0
            t0 = time.perf_counter()
            kernel = ScanKernel(signature)
            built = time.perf_counter() - t0
            self.misses += 1
            self.build_seconds += built
            self._entries[signature] = kernel
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            if self._misses_c is not None:
                self._misses_c.inc()
                self._build_c.inc(built)
            return kernel, built

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: KernelSignature) -> bool:
        with self._lock:
            return signature in self._entries

    def stats(self) -> dict[str, object]:
        """Snapshot for the registry collector / governor panel."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "build_seconds": self.build_seconds,
            }


_process_lock = threading.Lock()
_process_cache: KernelCache | None = None


def process_cache() -> KernelCache:
    """The per-process fallback cache, for scans with no engine."""
    global _process_cache
    with _process_lock:
        if _process_cache is None:
            _process_cache = KernelCache()
        return _process_cache
