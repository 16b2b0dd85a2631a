"""Governed storage and fuzzy matching of materialized aggregates.

A :class:`MaterializedAggregate` is one captured ``HashAggregate``
output, stored as a single :class:`repro.batch.Batch` whose columns are
keyed by *canonical* names: each dimension column by its normalized
SQL (``region``, ``(a % 10)``), each aggregate by ``"func:arg"``
(``sum:amount``, ``count:*``).  Every aggregate is also stored as
its partials (an AVG as ``sum:`` and ``count:``; the algebra is
:func:`repro.executor.operators.partial_aggregate`), so a stored MV can
later serve any re-aggregatable subset of its function family.

Matching (:meth:`MVCatalog.match`) is the AppLovin-style ladder:

* **exact** — same dims, same filters, every requested aggregate
  stored as a final column: serve the batch as-is.
* **partial** — the MV is *wider*: its dims are a superset of the
  query's, its filters a subset (the leftover conjuncts must touch
  only MV dimension columns, so they can be applied to the stored
  groups), and every partial of every requested aggregate stored:
  the planner re-aggregates them.
* otherwise ``None`` — the planner falls through to the raw path.

Governance: each table's MVs form one
:class:`repro.core.ledger.GovernedLedger` keyed by query signature and
registered with the engine's :class:`repro.service.MemoryGovernor`
(kind ``"mv"``), valued at ``benefit_seconds / nbytes`` like map
chunks and cache entries — the benefit being the measured
scan+aggregate seconds the capture replaced.  Admission (a re-capture
of a signature supersedes its entry, which stays if the new one is
refused), tail-merge growth, eviction, invalidation and recency are the
ledger's; matching and tail-merging are the catalog's own.

**Row watermark.**  An entry aggregates the table rows ``[0, rows)``
— ``rows`` is taken from the line index of the scan that built it —
and keeps the recipe (:class:`MVRecipe`) that built it.  An append
leaves the entry valid for that prefix: the next hit aggregates only
the rows past the watermark, re-aggregates them with the stored groups
and :meth:`MVCatalog.advance` swaps the merged batch in.  Every stored
partial is append-mergeable, and an AVG is recomputed from its merged
partials.  INTEGER results stay exact — or raise the typed out-of-range
error — however often they were merged; a FLOAT ``SUM``/``AVG`` adds
the tail's sum to the stored one instead of adding row by row, so it
equals the raw path's within 1e-9 relative rather than bit for bit.
Rewrites and drops still invalidate, generation-style, through the
service's per-table write path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..batch import Batch
from ..core.ledger import GovernedLedger, now
from ..datatypes import DataType
from ..executor.operators import PARTIALS
from ..sql.ast import Expression
from .signature import QuerySignature


def column_name(func: str, arg: str) -> str:
    """Canonical stored-column name of one aggregate component."""
    return f"{func}:{arg}"


@dataclass(frozen=True)
class MVRecipe:
    """What an entry aggregates, as alias-free expressions over the
    table's columns — enough to fold further table rows into it."""

    #: ``(stored dim column, group expression)``.
    groups: tuple[tuple[str, Expression], ...]
    #: ``(stored column, func, argument)`` of every stored partial
    #: (the append-mergeable columns; an AVG is derived from its
    #: partials); ``None`` is ``COUNT(*)``'s argument.
    aggs: tuple[tuple[str, str, Expression | None], ...]
    #: WHERE conjuncts.
    filters: tuple[Expression, ...]


@dataclass
class MaterializedAggregate:
    """One governed, generation-stamped captured aggregate."""

    mv_id: int
    signature: QuerySignature
    #: Canonical dim column names (== ``signature.dims``).
    dims: tuple[str, ...]
    #: ``(func, arg) -> stored column name`` for every stored final
    #: and component column.
    columns: dict[tuple[str, str], str]
    batch: Batch
    types: dict[str, DataType]
    nbytes: int
    #: Table generation at install; bumped generations invalidate.
    generation: int
    #: The batch aggregates table rows ``[0, rows)``.
    rows: int
    recipe: MVRecipe
    #: Measured scan+aggregate seconds the capture replaced — the
    #: seconds a future hit saves (the governor's benefit signal).
    benefit_seconds: float
    build_seconds: float
    created_unix: float
    hits: int = 0
    partial_hits: int = 0
    last_used_ts: float = field(default_factory=now)

    def describe(self, table_rows: int | None = None) -> dict[str, object]:
        """``table_rows``: the table's reconciled row count, when known
        (``lag_rows`` is how far the watermark trails it)."""
        return {
            "mv_id": self.mv_id,
            "table": self.signature.table,
            "signature": self.signature.label(),
            "dims": list(self.dims),
            "groups": self.batch.num_rows,
            "rows": self.rows,
            "lag_rows": (
                None if table_rows is None else max(table_rows - self.rows, 0)
            ),
            "nbytes": self.nbytes,
            "hits": self.hits,
            "partial_hits": self.partial_hits,
            "benefit_seconds": round(self.benefit_seconds, 6),
            "benefit_per_byte": self.benefit_seconds / max(self.nbytes, 1),
        }


@dataclass
class MVMatch:
    """One serve decision handed to the planner."""

    entry: MaterializedAggregate
    kind: str  # "exact" | "partial"
    #: The entry's batch and the watermark it aggregates up to, read
    #: together under the governor lock (``advance`` swaps both).
    batch: Batch
    rows: int
    #: Query conjuncts (normalized SQL) the MV has *not* applied;
    #: the planner filters the stored groups by them (partial only).
    residual_filters: tuple[str, ...] = ()
    #: Set by the runtime when the entry lags its table: the plan must
    #: fold the table rows from ``rows`` on into the served batch.
    lagging: bool = False


class MVCatalog:
    """All resident materialized aggregates of one engine."""

    def __init__(self, registry, governor) -> None:
        self._registry = registry
        # Every method takes the governor's reentrant lock: grant-
        # triggered evictions re-enter our ledgers without a second lock
        # (and without an install-vs-evict lock-order inversion).
        self._governor = governor
        #: Per-table ledgers keyed by signature — the governor-facing
        #: membership unit, so a table's MVs are evicted (and
        #: ``unregister_table``-released) exactly like its map chunks.
        self._tables: dict[str, GovernedLedger] = {}
        self._ids = itertools.count(1)
        self.evictions = 0
        self.invalidations = 0
        self.rejected = 0
        self.builds = 0
        self.build_seconds = 0.0

    # ------------------------------------------------------------------
    # Lookup & matching.
    # ------------------------------------------------------------------

    def find(self, sig: QuerySignature) -> MaterializedAggregate | None:
        """The entry captured from exactly this signature, if resident."""
        with self._governor.lock:
            container = self._tables.get(sig.table)
            return None if container is None else container.peek(sig)

    def match(self, sig: QuerySignature) -> MVMatch | None:
        """Best resident MV able to answer ``sig`` (exact beats
        partial; smaller beats wider among partials)."""
        with self._governor.lock:
            container = self._tables.get(sig.table)
            if container is None:
                return None
            exact: MaterializedAggregate | None = None
            partials: list[MaterializedAggregate] = []
            for entry in container.entries():
                kind = self._compatibility(entry, sig)
                if kind == "exact":
                    exact = entry
                    break
                if kind == "partial":
                    partials.append(entry)
            if exact is not None:
                return MVMatch(exact, "exact", exact.batch, exact.rows)
            if not partials:
                return None
            best = min(partials, key=lambda e: (len(e.dims), e.nbytes))
            residual = tuple(
                f for f in sig.filters if f not in set(best.signature.filters)
            )
            return MVMatch(best, "partial", best.batch, best.rows, residual)

    def _compatibility(
        self, entry: MaterializedAggregate, sig: QuerySignature
    ) -> str | None:
        stored = entry.columns
        if (
            entry.signature.dims == sig.dims
            and entry.signature.filters == sig.filters
            and all(key in stored for key in sig.aggs)
        ):
            return "exact"
        if not set(sig.dims) <= set(entry.dims):
            return None
        if not set(entry.signature.filters) <= set(sig.filters):
            return None
        # Leftover query conjuncts must be evaluable over the stored
        # groups: every column they touch must itself be an MV dim.
        mv_filters = set(entry.signature.filters)
        dim_cols = set(entry.dims)
        for conjunct_sql, refs in sig.filter_columns:
            if conjunct_sql in mv_filters:
                continue
            if not set(refs) <= dim_cols:
                return None
        for func, arg in sig.aggs:
            if any((part, arg) not in stored for part in PARTIALS[func]):
                return None
        return "partial"

    def note_served(self, match: MVMatch) -> None:
        """Mark a hit: recency (the eviction tie-break) and counters."""
        with self._governor.lock:
            entry = match.entry
            if match.kind == "partial":
                entry.partial_hits += 1
            else:
                entry.hits += 1
            GovernedLedger.touch(entry)

    # ------------------------------------------------------------------
    # Install / invalidate / drop.
    # ------------------------------------------------------------------

    def install(self, entry: MaterializedAggregate, bought=True) -> bool:
        """Admit one captured aggregate; ``False`` when rejected — also
        when not ``bought`` (its rent does not cover its price).

        A re-capture of a resident signature replaces its entry (which
        stays when the new one is refused).  Callers hold the table's
        write lock (install is part of the deferred post-pump path), so
        admission races a concurrent reconcile/drop never interleave
        mid-decision.
        """
        with self._governor.lock:
            if not bought or not self._ensure_container(
                entry.signature.table
            ).admit(entry.signature, entry):
                self.rejected += 1
                return False
            self.builds += 1
            self.build_seconds += entry.build_seconds
        return True

    def price(self, sig: QuerySignature, nbytes: int) -> float:
        """:meth:`repro.service.MemoryGovernor.price` of an entry."""
        return self._governor.price(self._tables.get(sig.table), nbytes, {sig})

    def _ensure_container(self, table: str) -> GovernedLedger:
        container = self._tables.get(table)
        if container is None:
            container = GovernedLedger(
                self._governor, on_evict=self._note_evicted
            )
            self._tables[table] = container
            self._governor.register(container, table, "mv")
        return container

    def _note_evicted(self, entry: MaterializedAggregate) -> None:
        """The ledgers' eviction hook (called under the lock for every
        entry the governor evicts)."""
        self.evictions += 1

    def advance(
        self,
        entry: MaterializedAggregate,
        from_rows: int,
        batch: Batch,
        rows: int,
    ) -> bool:
        """Move ``entry``'s watermark to ``rows`` with the merged
        ``batch`` — iff it is still resident and still ends at
        ``from_rows``, the row the merge started from (of two sessions
        merging the same tail, one install wins).  Growth in bytes is
        granted like an install; a refusal leaves the entry lagging.
        Callers hold the table's write lock.
        """
        nbytes = sum(v.nbytes() for v in batch.columns.values())
        table = entry.signature.table
        with self._governor.lock:
            container = self._tables.get(table)
            if (
                container is None
                or container.peek(entry.signature) is not entry
                or entry.rows != from_rows
                or rows <= from_rows
            ):
                return False
            extra = nbytes - entry.nbytes
            if extra > 0 and not container.grow(entry.signature, extra):
                return False
            entry.batch, entry.rows, entry.nbytes = batch, rows, nbytes
            self._registry.counter("mv_tail_merges_total").inc()
            self._registry.counter("mv_tail_rows_total").inc(rows - from_rows)
        return True

    def invalidate_table(self, table: str) -> int:
        """Generation-style invalidation on rewrite: drop every MV of
        the table (the stored groups no longer match the file)."""
        with self._governor.lock:
            container = self._tables.get(table)
            if container is None:
                return 0
            dropped = container.invalidate()
            self.invalidations += dropped
            return dropped

    def drop_table(self, table: str) -> None:
        """Forget a dropped table entirely.  The governor membership is
        released by ``unregister_table`` on the service side."""
        with self._governor.lock:
            container = self._tables.pop(table, None)
            if container is not None:
                self.invalidations += container.invalidate()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        with self._governor.lock:
            return sum(c.used_bytes for c in self._tables.values())

    def entry_count(self) -> int:
        with self._governor.lock:
            return sum(c.entry_count for c in self._tables.values())

    def entries(self) -> list[MaterializedAggregate]:
        with self._governor.lock:
            return [e for c in self._tables.values() for e in c.entries()]

    def next_id(self) -> int:
        return next(self._ids)
