"""Per-query span tracing: one tree of timed spans per statement.

Every query gets a ``trace_id``; the stages it passes through
— admission wait, file reconcile, planning, per-table lock
acquisition, the producer's channel pump, the wire
server's frame writes — each record a span under that id.  The result
is one connected tree per query answering *where a specific query's
wall time went across threads and processes*, complementing the
aggregate view of :class:`repro.telemetry.registry.MetricsRegistry`.

Context is passed **explicitly** (a :class:`Span` parent argument), not
via ``contextvars``: a query's spans are produced by the calling
thread, a dedicated producer thread and the asyncio server loop, so
there is no one logical context to inherit from — threading the
parent through the call graph is both cheaper and honest about who
owns what.

Finished traces live in a bounded ring buffer (``keep`` most recent)
and export as JSONL.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Spans kept per trace before dropping (a degenerate 10k-chunk scan
#: should not turn the ring buffer into a memory leak).
MAX_SPANS_PER_TRACE = 512


@dataclass(slots=True)
class Span:
    """One timed stage of a query, part of a trace tree."""

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s


class _TraceRecord:
    """All spans of one trace; mutable until evicted from the ring."""

    __slots__ = ("trace_id", "root", "spans", "started_wall", "dropped")

    def __init__(self, root: Span) -> None:
        self.trace_id = root.trace_id
        self.root = root
        self.spans: list[Span] = [root]
        self.started_wall = time.time()
        self.dropped = 0


class Tracer:
    """Creates, finishes and retains per-query span trees."""

    def __init__(self, keep: int = 256) -> None:
        self._lock = threading.Lock()
        self._prefix = os.urandom(3).hex()
        self._trace_seq = itertools.count(1)
        self._span_seq = itertools.count(1)
        self._active: dict[str, _TraceRecord] = {}
        self._recent: deque[_TraceRecord] = deque(maxlen=keep)
        self.traces_started = 0
        self.traces_finished = 0

    # ------------------------------------------------------------------
    # Span lifecycle.
    # ------------------------------------------------------------------

    def new_trace(self, name: str, **attrs) -> Span:
        """Open a new trace; returns its root span."""
        trace_id = f"{self._prefix}-{next(self._trace_seq):06d}"
        root = Span(
            trace_id=trace_id,
            span_id=next(self._span_seq),
            parent_id=None,
            name=name,
            start_s=time.perf_counter(),
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        with self._lock:
            self._active[trace_id] = _TraceRecord(root)
            self.traces_started += 1
        return root

    def start_span(self, parent: Span, name: str, **attrs) -> Span:
        """Open a child span under ``parent``."""
        span = Span(
            trace_id=parent.trace_id,
            span_id=next(self._span_seq),
            parent_id=parent.span_id,
            name=name,
            start_s=time.perf_counter(),
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        self._append(span)
        return span

    def end_span(self, span: Span, **attrs) -> None:
        span.end_s = time.perf_counter()
        if attrs:
            span.attrs.update(
                (k, v) for k, v in attrs.items() if v is not None
            )

    @contextmanager
    def span(self, parent: Span, name: str, **attrs):
        """``with tracer.span(parent, "plan") as sp: ...`` — the yielded
        span may be annotated via ``sp.attrs``."""
        span = self.start_span(parent, name, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    def add_span(
        self,
        parent: Span,
        name: str,
        duration_s: float,
        **attrs,
    ) -> Span:
        """Record an already-completed span of known duration.

        Used for work measured elsewhere, such as a lock wait timed
        by its caller; ``start_s`` is back-dated by ``duration_s``.
        """
        now = time.perf_counter()
        span = Span(
            trace_id=parent.trace_id,
            span_id=next(self._span_seq),
            parent_id=parent.span_id,
            name=name,
            start_s=now - max(duration_s, 0.0),
            end_s=now,
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        self._append(span)
        return span

    def span_for_trace(
        self, trace_id: str | None, name: str, **attrs
    ) -> Span | None:
        """Open a span under a trace's *root* given only its id.

        The wire server learns a query's trace only via the id stamped
        on the cursor; this parents its socket-write span correctly
        even though the root ended when the producer retired.
        ``None`` when the id is ``None`` or no longer retained.
        """
        if trace_id is None:
            return None
        record = self._find(trace_id)
        if record is None:
            return None
        return self.start_span(record.root, name, **attrs)

    def finish(self, root: Span, **attrs) -> None:
        """End the root span and move the trace to the ring buffer."""
        self.end_span(root, **attrs)
        with self._lock:
            record = self._active.pop(root.trace_id, None)
            if record is not None:
                self._recent.append(record)
                self.traces_finished += 1

    def _append(self, span: Span) -> None:
        with self._lock:
            record = self._locked_find(span.trace_id)
            if record is None:
                return
            if len(record.spans) >= MAX_SPANS_PER_TRACE:
                record.dropped += 1
            else:
                record.spans.append(span)

    def _find(self, trace_id: str) -> _TraceRecord | None:
        with self._lock:
            return self._locked_find(trace_id)

    def _locked_find(self, trace_id: str) -> _TraceRecord | None:
        record = self._active.get(trace_id)
        if record is not None:
            return record
        for record in self._recent:
            if record.trace_id == trace_id:
                return record
        return None

    # ------------------------------------------------------------------
    # Introspection / export.
    # ------------------------------------------------------------------

    def trace_dict(self, trace_id: str | None) -> dict | None:
        """One trace as a nested JSON-safe tree (``None`` if unknown)."""
        if trace_id is None:
            return None
        record = self._find(trace_id)
        if record is None:
            return None
        return _record_to_dict(record)

    def recent_traces(self, n: int = 16) -> list[dict]:
        """The ``n`` most recently finished traces, newest last."""
        with self._lock:
            records = list(self._recent)[-n:]
        return [_record_to_dict(r) for r in records]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "started": self.traces_started,
                "finished": self.traces_finished,
                "active": len(self._active),
                "retained": len(self._recent),
            }


def _record_to_dict(record: _TraceRecord) -> dict:
    with_children: dict[int, list[Span]] = {}
    for span in record.spans:
        if span.parent_id is not None:
            with_children.setdefault(span.parent_id, []).append(span)
    base = record.root.start_s

    def node(span: Span) -> dict:
        duration = span.duration_s
        out = {
            "name": span.name,
            "span_id": span.span_id,
            "start_offset_ms": round((span.start_s - base) * 1000.0, 3),
            "duration_ms": (
                round(duration * 1000.0, 3) if duration is not None else None
            ),
        }
        if span.attrs:
            out["attrs"] = dict(span.attrs)
        children = with_children.get(span.span_id)
        if children:
            out["children"] = [
                node(c) for c in sorted(children, key=lambda s: s.span_id)
            ]
        return out

    return {
        "trace_id": record.trace_id,
        "started_unix_s": round(record.started_wall, 3),
        "n_spans": len(record.spans),
        "dropped_spans": record.dropped,
        "root": node(record.root),
    }
