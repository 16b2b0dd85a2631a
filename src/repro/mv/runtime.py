"""The MV subsystem's single facade: what planner and service call.

The planner talks to this object duck-typed (``Planner(mv=...)``), so
:mod:`repro.sql.planner` stays import-free of this package; the service
owns one instance per engine (``None`` when ``mv_enabled=False``, which
restores pre-MV behavior exactly — no signature extraction, no catalog
probe, no counters).
"""

from __future__ import annotations

import time

from ..batch import Batch
from ..config import PostgresRawConfig
from ..executor.operators import PARTIALS
from ..sql.ast import SelectStatement
from .analyzer import WorkloadAnalyzer
from .catalog import (
    MaterializedAggregate,
    MVCatalog,
    MVMatch,
    MVRecipe,
    column_name,
)
from .signature import QuerySignature, extract_signature

#: Largest fraction of ``memory_budget`` one captured aggregate may
#: occupy; a bigger capture is rejected outright instead of evicting
#: most of the engine's adaptive state to make room for it.
MV_MAX_ENTRY_FRACTION = 0.25


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
        self.analyzer = WorkloadAnalyzer(
            config.mv_min_repeats, config.mv_auto
        )
        self.catalog = MVCatalog(
            registry,
            governor,
            max_entry_bytes=int(
                config.memory_budget * MV_MAX_ENTRY_FRACTION
            ),
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

    # ------------------------------------------------------------------
    # Service-facing surface.
    # ------------------------------------------------------------------

    def install(
        self,
        sig: QuerySignature,
        layout: dict,
        batch: Batch,
        benefit_seconds: float,
        rows: int,
        generation: int,
    ) -> bool:
        """Assemble a captured aggregate into a governed entry.

        ``layout`` maps the capture plan's internal column names to
        canonical MV names and carries the alias-free expressions they
        were computed from: ``{"dims": [(plan, canonical, expr)],
        "aggs": [(plan, func, arg, expr)], "filters": [expr], "types":
        {plan: DataType}}``.  ``rows`` is how many table rows the
        capture scan folded; the table may have grown past them since
        (the entry is then simply lagging).  The caller holds the
        table's write lock and has validated the generation.
        """
        start = time.perf_counter()
        columns: dict[tuple[str, str], str] = {}
        stored = {}
        types = {}
        for plan_name, canonical, __ in layout["dims"]:
            stored[canonical] = batch.column(plan_name)
            types[canonical] = layout["types"][plan_name]
        for plan_name, func, arg, __ in layout["aggs"]:
            name = column_name(func, arg)
            columns[(func, arg)] = name
            stored[name] = batch.column(plan_name)
            types[name] = layout["types"][plan_name]
        recipe = MVRecipe(
            groups=tuple(
                (canonical, expr) for __, canonical, expr in layout["dims"]
            ),
            aggs=tuple(
                (column_name(func, arg), func, expr)
                for __, func, arg, expr in layout["aggs"]
                if PARTIALS[func] == (func,)  # a partial itself: not AVG
            ),
            filters=tuple(layout["filters"]),
        )
        entry_batch = Batch(stored, num_rows=batch.num_rows)
        nbytes = sum(v.nbytes() for v in entry_batch.columns.values())
        observed = self.analyzer.observed_seconds(sig)
        entry = MaterializedAggregate(
            mv_id=self.catalog.next_id(),
            signature=sig,
            dims=sig.dims,
            columns=columns,
            batch=entry_batch,
            types=types,
            nbytes=nbytes,
            generation=generation,
            rows=rows,
            recipe=recipe,
            benefit_seconds=max(benefit_seconds, observed),
            build_seconds=time.perf_counter() - start,
            created_unix=time.time(),
        )
        return self.catalog.install(entry)

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
        :meth:`install`; not a build, so build counters do not move."""
        if entry.generation != generation:
            return False
        return self.catalog.advance(entry, from_rows, batch, rows)

    def invalidate_table(self, table: str) -> int:
        return self.catalog.invalidate_table(table)

    def drop_table(self, table: str) -> None:
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
        materialized = {
            e.signature for e in catalog.entries()
        }
        return {
            "enabled": True,
            "auto": self.config.mv_auto,
            "min_repeats": self.config.mv_min_repeats,
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
            "suggestions": self.analyzer.suggestions(
                estimator=self.estimate_result_bytes,
                materialized=materialized,
                limit=5,
            ),
        }
