"""Outside-in span tracing for the budget benchmark's traced pass.

Nothing under ``src/`` knows about this file.  :data:`TABLE` maps span
names to *public* callables of each layer; :meth:`Tracer.install`
wraps them in place (methods on their class, functions in every module
that imported them by name) and :meth:`Tracer.uninstall` puts the
originals back.  Each span records name, start, end, parent and — by
living in its thread's own list — the thread; an op owns the spans
whose start falls inside its ``(t0, t1)`` window (one op is in flight
at a time, so producer-thread and server-process spans attach to it by
time: ``perf_counter`` is the system-wide monotonic clock).

:func:`attribute` turns spans into a partition of each op's wall time.
A span's *self* time is its duration minus its same-thread children.
Where threads overlap, an instant belongs to the spans doing work (split
evenly — they share one GIL); a ``WAIT`` span (lock, channel, socket
read) only keeps the instants in which nothing else of the op runs.
What no span covers is the op's ``unattributed`` remainder, so the
parts always sum to the op's wall time.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

WORK = "work"
WAIT = "wait"

# Span record layout (a list, filled in place while the span is open).
NAME, START, END, PARENT, COUNTERS, LEAVES = range(6)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``style`` is ``call`` (one span per call), ``generator`` (one span
    per ``next()`` and one for ``close()``) or ``leaf`` (no span of its
    own: count and seconds are summed into the enclosing span — for
    callables invoked once per row).  ``capture(args, kwargs, result)``
    returns counters to keep on the span (``generator``: called with
    each yielded item as ``result``).
    """

    span: str
    module: str
    attr: str
    kind: str = WORK
    style: str = "call"
    capture: Callable | None = None


def _query_counters(args, kwargs, result) -> dict:
    m = args[1]  # Telemetry.note_query(self, metrics, ...)
    return {
        "rows_scanned": m.rows_scanned,
        "fields_tokenized": m.fields_tokenized,
        "fields_converted": m.fields_converted,
        "cache_hits": m.cache_hits,
        "cache_misses": m.cache_misses,
        "pm_chunk_hits": m.pm_chunk_hits,
        "pm_chunk_misses": m.pm_chunk_misses,
        "bytes_read": m.bytes_read,
    }


def _mv_match(args, kwargs, result) -> dict:
    kind = "miss" if result is None else result.kind
    return {f"mv_{kind}": 1}


def _kernel_lookup(args, kwargs, result) -> dict:
    return {"kernel_hit": 1} if result[1] == 0.0 else {"kernel_miss": 1}


TABLE: tuple[Target, ...] = (
    Target("sql.parse", "repro.sql.parser", "parse_select"),
    Target("sql.plan", "repro.sql.planner", "Planner.plan"),
    Target(
        "service.admission",
        "repro.service.scheduler",
        "QueryScheduler.acquire",
        WAIT,
    ),
    Target("service.lock", "repro.service.locks", "RWLock.acquire_read", WAIT),
    Target(
        "service.lock", "repro.service.locks", "RWLock.acquire_write", WAIT
    ),
    Target(
        "service.channel_put",
        "repro.service.streaming",
        "BatchChannel.put",
        WAIT,
    ),
    Target(
        "service.channel_get",
        "repro.service.streaming",
        "BatchChannel.get",
        WAIT,
    ),
    Target("service.detect_change", "repro.core.updates", "detect_change"),
    Target(
        "service.retire",
        "repro.telemetry",
        "Telemetry.note_query",
        capture=_query_counters,
    ),
    Target(
        "executor.fetch",
        "repro.executor.result",
        "batch_rows",
        capture=lambda a, k, rows: {"rows_out": len(rows)},
    ),
    Target(
        "formats.line_index",
        "repro.formats.csv",
        "CsvAdapter.build_line_index",
    ),
    Target(
        "formats.line_index",
        "repro.formats.jsonl",
        "JsonLinesAdapter.build_line_index",
    ),
    Target(
        "formats.tokenize", "repro.formats.csv", "CsvAdapter.tokenize_span"
    ),
    Target(
        "formats.jsonl_tokenize",
        "repro.formats.jsonl",
        "JsonLinesAdapter.tokenize_span",
    ),
    Target(
        "formats.extract",
        "repro.formats.csv",
        "CsvAdapter.extract_field",
        style="leaf",
    ),
    Target(
        "formats.extract",
        "repro.formats.jsonl",
        "JsonLinesAdapter.extract_field",
        style="leaf",
    ),
    Target(
        "formats.extract",
        "repro.formats.csv",
        "CsvAdapter.extract_fields_between",
    ),
    Target("kernels.tokenize", "repro.kernels.kernel", "ScanKernel.tokenize"),
    Target("kernels.convert", "repro.kernels.convert", "convert_span"),
    Target(
        "kernels.build",
        "repro.kernels.cache",
        "KernelCache.get",
        capture=_kernel_lookup,
    ),
    Target(
        "positional_map.install",
        "repro.core.positional_map",
        "PositionalMap.install",
    ),
    Target(
        "positional_map.extend",
        "repro.core.positional_map",
        "PositionalMap.extend",
    ),
    Target("cache.put", "repro.core.cache", "RawDataCache.put"),
    Target("cache.extend", "repro.core.cache", "RawDataCache.extend"),
    Target("vertical.read", "repro.storage.vertical", "VerticalStore.read"),
    Target(
        "vertical.promote",
        "repro.storage.vertical",
        "VerticalStore.promote",
        capture=lambda a, k, ok: {"promotions": int(bool(ok))},
    ),
    Target(
        "vertical.invalidate",
        "repro.storage.vertical",
        "VerticalStore.invalidate",
        capture=lambda a, k, dropped: {"vp_invalidations": dropped},
    ),
    Target(
        "mv.serve", "repro.mv.runtime", "MVRuntime.serve", capture=_mv_match
    ),
    Target(
        "mv.install",
        "repro.mv.runtime",
        "MVRuntime.install",
        capture=lambda a, k, ok: {"mv_builds": int(bool(ok))},
    ),
    Target(
        "mv.invalidate",
        "repro.mv.runtime",
        "MVRuntime.invalidate_table",
        capture=lambda a, k, dropped: {"mv_invalidations": dropped},
    ),
    Target("governor.grant", "repro.service.governor", "MemoryGovernor.grant"),
    Target(
        "server.encode",
        "repro.server.encoding",
        "iter_binary_row_frames",
        style="generator",
        capture=lambda a, k, frame: {"frames": 1, "bytes_out": len(frame)},
    ),
    Target(
        "client.decode",
        "repro.server.encoding",
        "decode_binary_rows",
        capture=lambda a, k, batch: {"bytes_in": len(a[0])},
    ),
    Target(
        "client.read_wait",
        "repro.server.protocol",
        "read_frame_blocking",
        WAIT,
    ),
)

#: ``Operator.execute`` of every operator class is wrapped (generator
#: style); classes not named here share one span.
OPERATOR_SPANS = {
    "RawScan": "raw_scan.scan",
    "Filter": "executor.filter",
    "Project": "executor.project",
    "HashAggregate": "executor.hash_aggregate",
    "MVScan": "mv.scan",
    "MVCapture": "mv.capture",
}
OTHER_OPERATOR_SPAN = "executor.other"

WAIT_SPANS = frozenset(t.span for t in TABLE if t.kind == WAIT)


class _ThreadSpans(threading.local):
    """Per-thread span list and the index of the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[list] | None = None
        self.top = -1


class Tracer:
    """Installs the wrappers and owns the recorded spans."""

    def __init__(self) -> None:
        self._local = _ThreadSpans()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, str, list[list]]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadSpans:
        local = self._local
        if local.spans is None:
            local.spans = []
            local.top = -1
            thread = threading.current_thread()
            with self._lock:
                self._threads.append((thread.ident, thread.name, local.spans))
        return local

    def _open(self, name: str) -> tuple[_ThreadSpans, list, int]:
        local = self._state()
        record = [name, 0.0, 0.0, local.top, None, None]
        parent = local.top
        local.top = len(local.spans)
        local.spans.append(record)
        record[START] = perf_counter()
        return local, record, parent

    def _wrap_call(self, orig: Callable, target: Target) -> Callable:
        name, capture, tracer = target.span, target.capture, self

        def traced(*args, **kwargs):
            local, record, parent = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                local.top = parent
            if capture is not None:
                record[COUNTERS] = capture(args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        return traced

    def _wrap_leaf(self, orig: Callable, target: Target) -> Callable:
        name, tracer = target.span, self

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                local = tracer._state()
                if local.top < 0:
                    local.spans.append([name, t0, t1, -1, None, None])
                else:
                    record = local.spans[local.top]
                    leaves = record[LEAVES]
                    if leaves is None:
                        leaves = record[LEAVES] = {}
                    slot = leaves.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += t1 - t0

        traced.__wrapped__ = orig
        return traced

    def _wrap_generator(self, orig: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return _TracedIterator(tracer, orig(*args, **kwargs), target)

        traced.__wrapped__ = orig
        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target of :data:`TABLE` and every operator."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in TABLE:
            self._patch(target)
        operators = importlib.import_module("repro.executor.operators")
        importlib.import_module("repro.core.raw_scan")
        for cls in _all_subclasses(operators.Operator):
            if "execute" not in cls.__dict__:
                continue
            span = OPERATOR_SPANS.get(cls.__name__, OTHER_OPERATOR_SPAN)
            target = Target(span, cls.__module__, f"{cls.__name__}.execute")
            wrapped = self._wrap_generator(cls.__dict__["execute"], target)
            self._set(cls, "execute", wrapped)

    def _patch(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        wrap = getattr(self, f"_wrap_{target.style}")
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, method, wrap(cls.__dict__[method], target))
            return
        orig = getattr(module, target.attr)
        wrapped = wrap(orig, target)
        # ``from x import f`` copied the function object into the
        # importing module: patch every such copy, not just the source.
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(target.attr) is orig:
                self._set(mod, target.attr, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- export --------------------------------------------------------

    def dump(self) -> dict:
        """Recorded spans of this process, JSON-ready."""
        with self._lock:
            threads = [
                {"tid": tid, "name": name, "spans": spans}
                for tid, name, spans in self._threads
            ]
        return {"pid": os.getpid(), "threads": threads}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.dump(), f)


class _TracedIterator:
    """Times each ``next()`` (and ``close()``) of a wrapped generator."""

    __slots__ = ("_tracer", "_it", "_name", "_capture")

    def __init__(self, tracer: Tracer, it, target: Target) -> None:
        self._tracer = tracer
        self._it = iter(it)
        self._name = target.span
        self._capture = target.capture

    def __iter__(self):
        return self

    def __next__(self):
        local, record, parent = self._tracer._open(self._name)
        try:
            item = next(self._it)
        finally:
            record[END] = perf_counter()
            local.top = parent
        if self._capture is not None:
            record[COUNTERS] = self._capture((), {}, item)
        return item

    def close(self) -> None:
        closer = getattr(self._it, "close", None)
        if closer is None:
            return
        local, record, parent = self._tracer._open(self._name)
        try:
            closer()
        finally:
            record[END] = perf_counter()
            local.top = parent


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# Attribution: spans -> a partition of each op's wall time.
# ----------------------------------------------------------------------


def self_segments(spans: list[list]) -> list[tuple]:
    """One thread's spans as disjoint ``(start, end, weights)`` pieces.

    A span's self time is what its children (same thread) do not cover.
    ``weights`` is ``((name, fraction), ...)``: the span's own name,
    minus the share its per-row ``leaf`` callables took.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    segments = []
    for index, span in enumerate(spans):
        end = span[END]
        if end <= span[START]:
            continue  # still open when the spans were dumped
        pieces = []
        cursor = span[START]
        for child in children.get(index, ()):
            c_start, c_end = spans[child][START], spans[child][END]
            if c_start > cursor:
                pieces.append((cursor, c_start))
            cursor = max(cursor, c_end if c_end > c_start else c_start)
        if end > cursor:
            pieces.append((cursor, end))
        total = sum(b - a for a, b in pieces)
        if total <= 0.0:
            continue
        weights = [(span[NAME], 1.0)]
        if span[LEAVES]:
            taken = 0.0
            for leaf, (_, seconds) in span[LEAVES].items():
                share = min(seconds / total, 1.0 - taken)
                weights.append((leaf, share))
                taken += share
            weights[0] = (span[NAME], 1.0 - taken)
        weights = tuple(weights)
        segments.extend((a, b, weights) for a, b in pieces)
    return segments


@dataclass
class OpAttribution:
    """Where one op's wall time went."""

    wall: float
    #: span name -> attributed seconds; sums with ``unattributed`` to
    #: ``wall``.
    self_seconds: dict[str, float]
    unattributed: float
    #: span name -> summed raw durations (waits overlap other work).
    raw_seconds: dict[str, float]
    #: span name -> spans started inside the op.
    calls: dict[str, int]
    #: captured counters, summed.
    counters: dict[str, float]

    def rescale(self, factor: float) -> None:
        """Express every time at another machine speed (see speed.py)."""
        self.wall *= factor
        self.unattributed *= factor
        for seconds in (self.self_seconds, self.raw_seconds):
            for name in seconds:
                seconds[name] *= factor


def attribute(
    ops: list[tuple[float, float]], thread_spans: list[list[list]]
) -> list[OpAttribution]:
    """Partition each op window over the spans of every thread.

    ``ops`` are ``(t0, t1)`` windows in time order, not overlapping.
    """
    starts = [t0 for t0, _ in ops]
    per_op_segments: list[list[tuple]] = [[] for _ in ops]
    results = [
        OpAttribution(t1 - t0, {}, 0.0, {}, {}, {}) for t0, t1 in ops
    ]

    def owner(t: float) -> int | None:
        i = bisect_right(starts, t) - 1
        if i >= 0 and t <= ops[i][1]:
            return i
        return None

    for spans in thread_spans:
        for span in spans:
            i = owner(span[START])
            if i is None or span[END] <= span[START]:
                continue
            out = results[i]
            name = span[NAME]
            out.calls[name] = out.calls.get(name, 0) + 1
            out.raw_seconds[name] = (
                out.raw_seconds.get(name, 0.0) + span[END] - span[START]
            )
            for key, value in (span[COUNTERS] or {}).items():
                out.counters[key] = out.counters.get(key, 0) + value
            for leaf, (count, _) in (span[LEAVES] or {}).items():
                out.calls[leaf] = out.calls.get(leaf, 0) + count
        for a, b, weights in self_segments(spans):
            i = owner(a)
            if i is None:
                continue
            b = min(b, ops[i][1])
            if b > a:
                per_op_segments[i].append((a, b, weights))

    for (t0, t1), segments, out in zip(ops, per_op_segments, results):
        out.unattributed = _sweep(t0, t1, segments, out.self_seconds)
    return results


def _sweep(t0, t1, segments, out: dict[str, float]) -> float:
    """Share ``[t0, t1]`` among overlapping segments; returns the
    seconds no segment covered."""
    events = []
    for index, (a, b, _) in enumerate(segments):
        events.append((a, 1, index))
        events.append((b, 0, index))
    events.sort()
    work: set[int] = set()
    wait: set[int] = set()
    uncovered = 0.0
    prev = t0
    for t, opening, index in events:
        dt = t - prev
        if dt > 0.0:
            active = work or wait
            if active:
                share = dt / len(active)
                for seg in active:
                    for name, fraction in segments[seg][2]:
                        out[name] = out.get(name, 0.0) + share * fraction
            else:
                uncovered += dt
            prev = t
        is_wait = segments[index][2][0][0] in WAIT_SPANS
        group = wait if is_wait else work
        if opening:
            group.add(index)
        else:
            group.discard(index)
    if t1 > prev:
        uncovered += t1 - prev
    return uncovered
