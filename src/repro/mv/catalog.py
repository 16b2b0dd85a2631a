"""Governed storage and fuzzy matching of materialized aggregates.

A :class:`MaterializedAggregate` is one captured ``HashAggregate``
output, stored as a single :class:`repro.batch.Batch` whose columns are
keyed by *canonical* names: each dimension column by its normalized
SQL (``region``, ``(a % 10)``), each aggregate by ``"func:arg"``
(``sum:amount``, ``count:*``).  An AVG capture also stores its
``sum:``/``count:`` components, so a stored MV can later serve any
re-aggregatable subset of its function family.

Matching (:meth:`MVCatalog.match`) is the AppLovin-style ladder:

* **exact** — same dims, same filters, every requested aggregate
  stored as a final column: serve the batch as-is.
* **partial** — the MV is *wider*: its dims are a superset of the
  query's, its filters a subset (the leftover conjuncts must touch
  only MV dimension columns, so they can be applied to the stored
  groups), and every requested aggregate re-derivable from stored
  components (COUNT/SUM via summation, MIN/MAX via min/max, AVG as
  ``SUM(sum)/SUM(count)``).
* otherwise ``None`` — the planner falls through to the raw path.

Governance: each table's MVs form one :class:`GovernedStructure`
member inside the engine's :class:`repro.service.MemoryGovernor`
(kind ``"mv"``), valued at ``benefit_seconds / nbytes`` like map
chunks and cache entries — the benefit being the measured
scan+aggregate seconds the capture replaced.  Every install and
tail-merge asks the governor for its bytes; one entry may not exceed
``max_entry_bytes``.

**Row watermark.**  An entry aggregates the table rows ``[0, rows)``
— ``rows`` is taken from the line index of the scan that built it —
and keeps the recipe (:class:`MVRecipe`) that built it.  An append
leaves the entry valid for that prefix: the next hit aggregates only
the rows past the watermark, re-aggregates them with the stored groups
and :meth:`MVCatalog.advance` swaps the merged batch in.  Every stored
component is append-mergeable (``count``/``sum`` by summation,
``min``/``max`` by min/max, AVG recomputed from merged sum and count).
INTEGER results stay exact — or raise the typed out-of-range error —
however often they were merged; a FLOAT ``SUM``/``AVG`` adds the tail's
sum to the stored one instead of adding row by row, so it equals the
raw path's within 1e-9 relative rather than bit for bit.  Rewrites and
drops still invalidate, generation-style, through the service's
per-table write path.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from ..batch import Batch
from ..datatypes import DataType
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
    #: ``(stored column, func, argument)`` of every append-mergeable
    #: component (AVG is stored as its SUM and COUNT); ``None`` is
    #: ``COUNT(*)``'s argument.
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
    last_used: int = 0
    last_used_ts: float = field(default_factory=time.monotonic)

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
    #: together under the catalog lock (``advance`` swaps both).
    batch: Batch
    rows: int
    #: Query conjuncts (normalized SQL) the MV has *not* applied;
    #: the planner filters the stored groups by them (partial only).
    residual_filters: tuple[str, ...] = ()
    #: Set by the runtime when the entry lags its table: the plan must
    #: fold the table rows from ``rows`` on into the served batch.
    lagging: bool = False


class _TableMVs:
    """Per-table MV container; the governor-facing membership unit.

    Satisfies :class:`repro.service.governor.GovernedStructure`, so a
    table's MVs are evicted (and ``unregister_table``-released) exactly
    like its positional-map chunks and cache entries.  All mutation
    happens under the owning catalog's lock — which *is* the governor's
    lock, preserving the "one lock serializes budget decisions and
    container mutations" invariant.
    """

    def __init__(self, catalog: "MVCatalog", table: str) -> None:
        self._catalog = catalog
        self.table = table
        self.entries: dict[int, MaterializedAggregate] = {}

    def governed_bytes(self) -> int:
        with self._catalog.lock:
            return sum(e.nbytes for e in self.entries.values())

    def governed_items(self) -> list[tuple]:
        with self._catalog.lock:
            return [
                (
                    e.mv_id,
                    e.nbytes,
                    e.benefit_seconds / max(e.nbytes, 1),
                    e.last_used,
                    e.last_used_ts,
                )
                for e in self.entries.values()
            ]

    def governed_evict(self, token: object) -> int:
        with self._catalog.lock:
            entry = self.entries.pop(token, None)
            if entry is None:
                return 0
            self._catalog._note_evicted(entry)
            return entry.nbytes


class MVCatalog:
    """All resident materialized aggregates of one engine."""

    def __init__(self, registry, governor, max_entry_bytes: int = 0) -> None:
        self._registry = registry
        self._governor = governor
        # Sharing the governor's reentrant lock makes grant-triggered
        # evictions re-enter our containers without a second lock (and
        # without an install-vs-evict lock-order inversion).
        self.lock = governor.lock
        #: Per-entry size ceiling (``0``: only the governor's budget).
        self.max_entry_bytes = max_entry_bytes
        self._tables: dict[str, _TableMVs] = {}
        self._ids = itertools.count(1)
        self._tick = itertools.count(1)
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
        with self.lock:
            container = self._tables.get(sig.table)
            if container is None:
                return None
            for entry in container.entries.values():
                if entry.signature == sig:
                    return entry
            return None

    def match(self, sig: QuerySignature) -> MVMatch | None:
        """Best resident MV able to answer ``sig`` (exact beats
        partial; smaller beats wider among partials)."""
        with self.lock:
            container = self._tables.get(sig.table)
            if container is None:
                return None
            exact: MaterializedAggregate | None = None
            partials: list[MaterializedAggregate] = []
            for entry in container.entries.values():
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
            if func == "avg":
                if ("sum", arg) not in stored or ("count", arg) not in stored:
                    return None
            elif (func, arg) not in stored:
                return None
        return "partial"

    def note_served(self, match: MVMatch) -> None:
        """Mark a hit: recency + hit counters feed the benefit decay."""
        with self.lock:
            entry = match.entry
            if match.kind == "partial":
                entry.partial_hits += 1
            else:
                entry.hits += 1
            entry.last_used = next(self._tick)
            entry.last_used_ts = time.monotonic()

    # ------------------------------------------------------------------
    # Install / invalidate / drop.
    # ------------------------------------------------------------------

    def install(self, entry: MaterializedAggregate) -> bool:
        """Admit one captured aggregate; ``False`` when rejected.

        Callers hold the table's write lock (install is part of the
        deferred post-pump path), so admission races a concurrent
        reconcile/drop never interleave mid-decision.
        """
        if self.max_entry_bytes and entry.nbytes > self.max_entry_bytes:
            with self.lock:
                self.rejected += 1
            return False
        with self.lock:
            container = self._ensure_container(entry.signature.table)
            stale = [
                e.mv_id
                for e in container.entries.values()
                if e.signature == entry.signature
            ]
            for mv_id in stale:
                container.governed_evict(mv_id)
            if not self._governor.grant(container, entry.nbytes):
                self.rejected += 1
                return False
            self._admit(container, entry)
        return True

    def _ensure_container(self, table: str) -> _TableMVs:
        container = self._tables.get(table)
        if container is None:
            container = _TableMVs(self, table)
            self._tables[table] = container
            self._governor.register(container, table, "mv")
        return container

    def _admit(
        self, container: _TableMVs, entry: MaterializedAggregate
    ) -> None:
        entry.last_used = next(self._tick)
        entry.last_used_ts = time.monotonic()
        container.entries[entry.mv_id] = entry
        self.builds += 1
        self.build_seconds += entry.build_seconds
        self._registry.counter("mv_builds_total").inc()
        self._registry.counter("mv_build_seconds_total").inc(
            entry.build_seconds
        )
        self._update_gauge()

    def _note_evicted(self, entry: MaterializedAggregate) -> None:
        """Called (under the lock) by containers for every removal that
        goes through ``governed_evict`` — governor pressure or
        same-signature replacement."""
        self.evictions += 1
        self._registry.counter("mv_evictions_total").inc()
        self._update_gauge()

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
        with self.lock:
            container = self._tables.get(table)
            if (
                container is None
                or container.entries.get(entry.mv_id) is not entry
                or entry.rows != from_rows
                or rows <= from_rows
            ):
                return False
            if self.max_entry_bytes and nbytes > self.max_entry_bytes:
                return False
            extra = nbytes - entry.nbytes
            if extra > 0 and not self._governor.grant(
                container, extra, {entry.mv_id}
            ):
                return False
            entry.batch, entry.rows, entry.nbytes = batch, rows, nbytes
            self._registry.counter("mv_tail_merges_total").inc()
            self._registry.counter("mv_tail_rows_total").inc(rows - from_rows)
            self._update_gauge()
        return True

    def invalidate_table(self, table: str) -> int:
        """Generation-style invalidation on rewrite: drop every MV of
        the table (the stored groups no longer match the file)."""
        with self.lock:
            container = self._tables.get(table)
            if container is None:
                return 0
            dropped = len(container.entries)
            container.entries.clear()
            if dropped:
                self.invalidations += dropped
                self._registry.counter("mv_invalidations_total").inc(dropped)
                self._update_gauge()
            return dropped

    def drop_table(self, table: str) -> None:
        """Forget a dropped table entirely.  The governor membership is
        released by ``unregister_table`` on the service side."""
        with self.lock:
            container = self._tables.pop(table, None)
            if container is not None and container.entries:
                self.invalidations += len(container.entries)
                container.entries.clear()
            self._update_gauge()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        with self.lock:
            return sum(
                e.nbytes
                for c in self._tables.values()
                for e in c.entries.values()
            )

    def entry_count(self) -> int:
        with self.lock:
            return sum(len(c.entries) for c in self._tables.values())

    def entries(self) -> list[MaterializedAggregate]:
        with self.lock:
            return [
                e
                for c in self._tables.values()
                for e in c.entries.values()
            ]

    def next_id(self) -> int:
        return next(self._ids)

    def _update_gauge(self) -> None:
        self._registry.gauge("mv_bytes").set(float(self.total_bytes()))
