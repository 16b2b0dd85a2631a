"""``repro.telemetry`` — the engine's observability substrate.

Three pieces, one facade:

* :class:`MetricsRegistry` (:mod:`repro.telemetry.registry`) —
  engine-wide counters and log-bucketed latency histograms,
  plus snapshot-time collectors over component stats.  The monitoring
  panels render from its :meth:`~MetricsRegistry.snapshot`.
* :class:`Tracer` (:mod:`repro.telemetry.trace`) — per-query span
  trees under one ``trace_id``, propagated from admission through
  locks and the wire server's socket writes.
* :class:`Telemetry` — what a service owns: the registry + tracer +
  the slow-query log, with the JSONL/Prometheus exporters attached.

Telemetry is always on: every query has a root span, and every count
a component reports lives in exactly one place — its own attribute
behind a collector, or a registry instrument it reads back.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path

from .export import (
    export_traces_jsonl,
    prometheus_text,
    snapshot_json,
    write_jsonl,
)
from .registry import Counter, Histogram, MetricsRegistry
from .trace import Span, Tracer


class Telemetry:
    """One engine's observability state (owned by the service)."""

    def __init__(
        self,
        slow_query_s: float | None = None,
        keep_traces: int = 256,
        keep_slow_queries: int = 128,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(keep=keep_traces)
        self.slow_query_s = slow_query_s
        self._slow_lock = threading.Lock()
        self._slow: deque[dict] = deque(maxlen=keep_slow_queries)

    @classmethod
    def from_config(cls, config) -> "Telemetry":
        return cls(slow_query_s=config.slow_query_s)

    # ------------------------------------------------------------------
    # Per-query accounting (called by the service at cursor retire).
    # ------------------------------------------------------------------

    def note_query(self, metrics, trace_id=None, sql=None, plan=None) -> None:
        """Fold one finished query into the aggregate instruments and,
        past the ``slow_query_s`` threshold, the slow-query log.
        ``plan`` says whether the statement was ``"planned"`` or bound
        into a cached ``"template"``."""
        reg = self.registry
        reg.counter("queries_total").inc()
        reg.histogram("query_latency_seconds").observe(metrics.total_seconds)
        if metrics.time_to_first_batch is not None:
            reg.histogram("ttfb_seconds").observe(metrics.time_to_first_batch)
        if metrics.windows_skipped:
            reg.counter("scan_windows_skipped_total").inc(
                metrics.windows_skipped
            )
        threshold = self.slow_query_s
        if threshold is None or metrics.total_seconds < threshold:
            return
        reg.counter("slow_queries_total").inc()
        breakdown = metrics.component_seconds()
        breakdown["unattributed"] = metrics.unattributed_seconds
        entry = {
            "unix_s": round(time.time(), 3),
            "trace_id": trace_id,
            "sql": sql,
            "plan": plan,
            "total_seconds": metrics.total_seconds,
            "time_to_first_batch": metrics.time_to_first_batch,
            "rows_scanned": metrics.rows_scanned,
            "breakdown": breakdown,
            # Detail of breakdown["nodb"], where kernel builds are
            # charged — recorded separately so the breakdown keys keep
            # summing (with "unattributed") to total_seconds exactly.
            "kernel_build_seconds": metrics.kernel_build_seconds,
            "span_tree": self.tracer.trace_dict(trace_id),
        }
        with self._slow_lock:
            self._slow.append(entry)

    def slow_queries(self) -> list[dict]:
        """Recorded slow-query entries, oldest first."""
        with self._slow_lock:
            return list(self._slow)

    # ------------------------------------------------------------------
    # Exposition.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def prometheus_text(self, prefix: str = "repro") -> str:
        return self.registry.prometheus_text(prefix)

    def export_traces_jsonl(self, path: str | Path, n: int = 256) -> int:
        return export_traces_jsonl(self.tracer, path, n)

    def export_slow_queries_jsonl(self, path: str | Path) -> int:
        return write_jsonl(path, self.slow_queries())


__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "export_traces_jsonl",
    "prometheus_text",
    "snapshot_json",
    "write_jsonl",
]
