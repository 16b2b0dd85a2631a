"""The engine-wide plan cache: SQL text -> a reusable scan-free plan.

Only plans without a :class:`repro.core.raw_scan.RawScan` are cached —
a level MV hit (exact or partial) or a FROM-less ``SELECT`` — because
only those are fully determined by the catalog plus one serve verdict.
A hit skips the lexer, parser, binder, signature extraction and
planner; the service still serves the signature once per statement
(mining and hit counters unchanged) and reuses the cached shape only
while that verdict names the same entry, kind and watermark.  Shapes
hold no batch: the MV leaf is re-bound to the verdict's batch on every
hit, so an evicted entry is collectable while its SQL stays cached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..sql.ast import SelectStatement
from ..sql.planner import LogicalPlan

#: Most SQL texts kept (least recently used out first).  A constant,
#: not a knob: entries are a parsed statement plus a few operators.
PLAN_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class CachedPlan:
    """One cached statement: the parse and its plan shape."""

    #: The parsed statement (planning never mutates it).
    stmt: SelectStatement
    #: The plan, its MV leaf bound to no batch.
    shape: LogicalPlan

    def bind(self, match) -> LogicalPlan | None:
        """The shape serving ``match`` (the statement's serve verdict),
        or ``None`` when the verdict no longer fits it."""
        shape = self.shape
        if shape.mv_id is None:
            return shape  # FROM-less: nothing is served
        if (
            match is None
            or match.lagging
            or match.kind != shape.mv_decision
            or match.entry.mv_id != shape.mv_id
        ):
            return None
        return shape.rebound(match.batch)


class PlanCache:
    """A bounded LRU of :class:`CachedPlan` keyed by exact SQL text,
    shared by every session of one service."""

    def __init__(self, registry, capacity: int = PLAN_CACHE_ENTRIES) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._plans: OrderedDict[str, CachedPlan] = OrderedDict()
        self._hits = registry.counter("plan_cache_hits_total")
        self._misses = registry.counter("plan_cache_misses_total")
        self._evictions = registry.counter("plan_cache_evictions_total")

    def get(self, sql: str) -> CachedPlan | None:
        with self._lock:
            cached = self._plans.get(sql)
            if cached is not None:
                self._plans.move_to_end(sql)
        (self._misses if cached is None else self._hits).inc()
        return cached

    def put(self, sql: str, stmt: SelectStatement, plan: LogicalPlan) -> None:
        """Cache ``plan`` (just executed for ``sql``) as a shape."""
        shape = plan if plan.mv_id is None else plan.rebound(None)
        cached = CachedPlan(stmt, shape)
        with self._lock:
            self._plans[sql] = cached
            self._plans.move_to_end(sql)
            evicted = max(len(self._plans) - self.capacity, 0)
            for __ in range(evicted):
                self._plans.popitem(last=False)
        if evicted:
            self._evictions.inc(evicted)

    def discard(self, sql: str, cached: CachedPlan) -> None:
        """Drop ``sql``'s entry if it is still ``cached``."""
        with self._lock:
            if self._plans.get(sql) is cached:
                del self._plans[sql]

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __contains__(self, sql: str) -> bool:
        return sql in self._plans

    def __len__(self) -> int:
        return len(self._plans)
