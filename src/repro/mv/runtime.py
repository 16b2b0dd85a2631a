"""The MV subsystem's single facade: what planner and service call.

The planner talks to this object duck-typed (``Planner(mv=...)``), so
:mod:`repro.sql.planner` stays import-free of this package; the service
owns one instance per engine.  A conventional plan (``Planner(mv=None)``,
the baseline's) extracts no signature, probes no catalog and counts
nothing; an engine that never captures (``mv_auto`` off, no
``build_mv``) probes an empty catalog and answers from the raw scan.

An MV is one fold: its recipe over the table rows ``[0, watermark)``.
A capture (:meth:`MVRuntime.capture`) is a new, empty entry the plan
folds every row into, served like a lagging hit; a tail merge folds
the rows past a resident entry's watermark.  After the rows are out,
the service installs the one (:meth:`MVRuntime.install`) or advances
the other (:meth:`MVRuntime.advance`).
"""

from __future__ import annotations

import dataclasses
import time

from ..batch import Batch
from ..config import PostgresRawConfig
from ..executor.operators import PARTIALS
from ..sql.ast import Expression, SelectStatement, split_conjuncts
from ..sql.planner import (
    aggregate_calls,
    aggregate_key,
    normalize_sql,
    strip_alias,
)
from .analyzer import WorkloadAnalyzer
from .catalog import (
    MaterializedAggregate,
    MVCatalog,
    MVMatch,
    MVRecipe,
    column_name,
)
from .signature import QuerySignature, extract_signature


class MVRuntime:
    """Analyzer + catalog + telemetry wiring for one engine."""

    def __init__(
        self,
        config: PostgresRawConfig,
        registry,
        governor,
        stats_provider=None,
        rows_provider=None,
    ) -> None:
        self.config = config
        self.registry = registry
        self._stats_provider = stats_provider
        #: ``table -> its reconciled row count``, or ``None`` while that
        #: is unknown (an append not yet indexed, no line index kept).
        self._rows_provider = rows_provider or (lambda table: None)
        self.catalog = MVCatalog(registry, governor)
        self.analyzer = WorkloadAnalyzer(
            config.mv_auto,
            self.estimate_result_bytes,
            self.catalog.price,
            lambda sig: self.catalog.find(sig) is not None,
        )

    # ------------------------------------------------------------------
    # Planner-facing surface.
    # ------------------------------------------------------------------

    def signature_of(
        self, stmt: SelectStatement, table: str
    ) -> QuerySignature | None:
        return extract_signature(stmt, table)

    def serve(
        self, sig: QuerySignature, record: bool = True
    ) -> MVMatch | None:
        """Serve decision for one planned query.

        ``record=False`` (EXPLAIN) previews the decision without
        mining the signature, bumping counters or marking hits.  The
        match is marked ``lagging`` unless the table is known to end at
        the entry's watermark.
        """
        if record:
            self.analyzer.note_planned(sig)
        if self.analyzer.is_forced(sig):
            return None  # build_mv in flight: force the raw capture path
        match = self.catalog.match(sig)
        if match is not None:
            table_rows = self._rows_provider(sig.table)
            match.lagging = table_rows is None or match.rows < table_rows
        if not record:
            return match
        if match is None:
            self.registry.counter("mv_misses_total").inc()
            return None
        self.catalog.note_served(match)
        if match.kind == "partial":
            self.registry.counter("mv_partial_hits_total").inc()
        else:
            self.registry.counter("mv_hits_total").inc()
        return match

    def should_capture(self, sig: QuerySignature) -> bool:
        return self.analyzer.should_capture(
            sig, self.catalog.find(sig) is not None
        )

    def capture(
        self, stmt: SelectStatement, sig: QuerySignature
    ) -> MVMatch | None:
        """A capture of ``sig``, if it has earned one: an exact match
        over a new entry that lags from row 0 and stores nothing yet,
        so the plan folds every table row into it.

        The entry's recipe comes from the resolved ``stmt``, alias-free:
        each group expression under its normalized SQL, each partial
        (:data:`PARTIALS`) of each aggregate once, and the WHERE
        conjuncts.
        """
        if not self.should_capture(sig):
            return None
        groups: dict[str, Expression] = {}
        for expr in stmt.group_by:
            groups.setdefault(normalize_sql(expr), strip_alias(expr))
        args: dict[str, Expression | None] = {}
        for node in aggregate_calls(stmt):
            __, arg = aggregate_key(node)
            args[arg] = None if arg == "*" else strip_alias(node.args[0])
        parts = dict.fromkeys(
            (part, arg) for func, arg in sig.aggs for part in PARTIALS[func]
        )
        columns = {key: column_name(*key) for key in (*sig.aggs, *parts)}
        recipe = MVRecipe(
            groups=tuple(groups.items()),
            aggs=tuple(
                (columns[(part, arg)], part, args[arg]) for part, arg in parts
            ),
            filters=tuple(strip_alias(c) for c in split_conjuncts(stmt.where)),
        )
        entry = MaterializedAggregate(sig, sig.dims, columns, recipe)
        return MVMatch(entry, "exact", None, 0, lagging=True)

    # ------------------------------------------------------------------
    # Service-facing surface.
    # ------------------------------------------------------------------

    def install(
        self,
        entry: MaterializedAggregate,
        batch: Batch,
        benefit_seconds: float,
        rows: int,
        generation: int,
    ) -> bool:
        """Install a capture: ``batch`` is ``entry`` (from
        :meth:`capture`) with the table rows ``[0, rows)`` folded in,
        in ``benefit_seconds``.  The table may have grown past ``rows``
        since (the entry is then simply lagging).  The caller holds the
        table's write lock and has validated the generation.
        """
        start = time.perf_counter()
        sig = entry.signature
        nbytes = sum(v.nbytes() for v in batch.columns.values())
        entry = dataclasses.replace(
            entry,
            mv_id=self.catalog.next_id(),
            batch=batch,
            types={name: v.dtype for name, v in batch.columns.items()},
            nbytes=nbytes,
            generation=generation,
            rows=rows,
            benefit_seconds=max(
                benefit_seconds, self.analyzer.observed_seconds(sig)
            ),
            build_seconds=time.perf_counter() - start,
            created_unix=time.time(),
        )
        # The plan bought the estimate; the real bytes pay the same rule.
        if self.catalog.install(entry, self.analyzer.affords(sig, nbytes)):
            return True
        self.analyzer.refuse(sig)
        return False

    def observe_completion(
        self, sig: QuerySignature, decision: str | None, seconds: float
    ) -> None:
        self.analyzer.note_completed(sig, decision, seconds)

    def advance(
        self,
        entry: MaterializedAggregate,
        from_rows: int,
        batch: Batch,
        rows: int,
        generation: int,
    ) -> bool:
        """Install a tail-merge: ``batch`` is ``entry`` with the table
        rows ``[from_rows, rows)`` folded in.  Same caller contract as
        :meth:`install`; not a build, so build counters do not move.
        Growth is bought like a capture, with the entry's rent; refused,
        the entry stays lagging."""
        if entry.generation != generation:
            return False
        grows = sum(v.nbytes() for v in batch.columns.values()) - entry.nbytes
        if grows > 0 and not self.analyzer.affords(entry.signature, grows):
            return False
        return self.catalog.advance(entry, from_rows, batch, rows)

    def invalidate_table(self, table: str) -> int:
        self.analyzer.reset_rent(table)
        return self.catalog.invalidate_table(table)

    def drop_table(self, table: str) -> None:
        self.analyzer.reset_rent(table)
        self.catalog.drop_table(table)

    def force(self, sig: QuerySignature) -> None:
        self.analyzer.force(sig)

    def unforce(self, sig: QuerySignature) -> None:
        self.analyzer.unforce(sig)

    def find(self, sig: QuerySignature) -> MaterializedAggregate | None:
        return self.catalog.find(sig)

    def describe_entry(self, entry: MaterializedAggregate) -> dict:
        return entry.describe(self._rows_provider(entry.signature.table))

    # ------------------------------------------------------------------
    # Pricing & introspection.
    # ------------------------------------------------------------------

    def estimate_result_bytes(self, sig: QuerySignature) -> int | None:
        """Price a candidate from on-the-fly table statistics: the
        product of the dims' distinct estimates bounds the group count;
        width is a coarse per-column constant."""
        if self._stats_provider is None:
            return None
        stats = self._stats_provider(sig.table)
        if stats is None:
            return None
        groups = 1.0
        for dim in sig.dims:
            attr = stats.get(dim)
            if attr is None:
                return None  # expression dim or never-scanned column
            groups *= max(attr.distinct_estimate(), 1.0)
        rows = stats.row_estimate
        if rows:
            groups = min(groups, float(rows))
        width = 16 * (len(sig.dims) + max(len(sig.aggs), 1) + 1)
        return int(groups * width)

    def stats(self) -> dict[str, object]:
        """Registry collector: the panel / STATS / Prometheus view."""
        catalog = self.catalog
        registry = self.registry
        materialized = {e.signature for e in catalog.entries()}
        return {
            "auto": self.config.mv_auto,
            "mvs": catalog.entry_count(),
            "bytes": catalog.total_bytes(),
            "hits": int(registry.counter("mv_hits_total").value),
            "partial_hits": int(
                registry.counter("mv_partial_hits_total").value
            ),
            "misses": int(registry.counter("mv_misses_total").value),
            "builds": catalog.builds,
            "build_seconds": catalog.build_seconds,
            "invalidations": catalog.invalidations,
            "evictions": catalog.evictions,
            "rejected": catalog.rejected,
            "signatures": self.analyzer.signature_count(),
            "tail_merges": int(
                registry.counter("mv_tail_merges_total").value
            ),
            "tail_rows": int(registry.counter("mv_tail_rows_total").value),
            "entries": [self.describe_entry(e) for e in catalog.entries()],
            "suggestions": self.analyzer.suggestions(materialized, limit=5),
        }
