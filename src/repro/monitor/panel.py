"""The System Monitoring Panel (Figure 2).

"we monitor the storage space occupied by the positional map and the
caching structures and we visualize which parts of the raw data files
are known to the positional map, caches or both"

:class:`SystemMonitorPanel` snapshots a table's adaptive state after
each query, keeps the time series (the Figure 2 cache-utilization
curve), and renders an ASCII panel with:

* cache / positional-map utilization bars (each structure's share of
  the engine's ``memory_budget``),
* a per-attribute coverage grid shading file regions as known to the
  map (``m``), the cache (``c``), both (``B``) or neither (``.``),
* per-attribute access counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.table_state import RawTableState


@dataclass
class PanelSnapshot:
    """One point of the monitoring time series."""

    query_index: int
    cache_utilization: float
    cache_bytes: int
    cache_entries: int
    pm_bytes: int
    pm_chunks: int
    pm_coverage: float


@dataclass
class SystemMonitorPanel:
    """Live view over one raw table's adaptive structures."""

    state: RawTableState
    history: list[PanelSnapshot] = field(default_factory=list)

    def snapshot(self) -> PanelSnapshot:
        """Record the current state (call after each query)."""
        pm = self.state.positional_map
        cache = self.state.cache
        n_attrs = len(self.state.entry.schema)
        snap = PanelSnapshot(
            query_index=self.state.queries_executed,
            cache_utilization=cache.utilization(),
            cache_bytes=cache.used_bytes,
            cache_entries=cache.entry_count,
            pm_bytes=pm.used_bytes,
            pm_chunks=pm.chunk_count,
            pm_coverage=pm.coverage_fraction(n_attrs, pm.n_rows),
        )
        self.history.append(snap)
        return snap

    def cache_utilization_series(self) -> list[tuple[int, float]]:
        """The Figure 2 series: (query index, cache utilization %)."""
        return [
            (snap.query_index, snap.cache_utilization * 100.0)
            for snap in self.history
        ]

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def coverage_grid(self, region_count: int = 10) -> list[str]:
        """Per-attribute shading of file regions (rows split into
        ``region_count`` equal stripes): ``B`` both, ``c`` cache only,
        ``m`` map only, ``.`` unknown."""
        schema = self.state.entry.schema
        pm = self.state.positional_map
        cache = self.state.cache
        n_rows = max(pm.n_rows, max(
            (cache.coverage_rows(a) for a in range(len(schema))), default=0
        ))
        grid = []
        for attr, column in enumerate(schema):
            pm_rows = pm.coverage_rows(attr)
            cache_rows = cache.coverage_rows(attr)
            cells = []
            for region in range(region_count):
                # A region is covered when its *end* row is covered
                # (prefix coverage makes this exact).
                boundary = (
                    (region + 1) * n_rows // region_count if n_rows else 0
                )
                has_pm = n_rows > 0 and pm_rows >= boundary > 0
                has_cache = n_rows > 0 and cache_rows >= boundary > 0
                if has_pm and has_cache:
                    cells.append("B")
                elif has_cache:
                    cells.append("c")
                elif has_pm:
                    cells.append("m")
                else:
                    cells.append(".")
            grid.append(f"{column.name:>12s} [{''.join(cells)}]")
        return grid

    def render(self, width: int = 40) -> str:
        """The full panel as text."""
        pm = self.state.positional_map
        cache = self.state.cache
        budget = pm.governor.budget_bytes
        lines = [
            f"=== System Monitoring Panel: {self.state.entry.name} "
            f"(after {self.state.queries_executed} queries) ===",
            _bar("cache utilization", cache.utilization(), width)
            + f"  {cache.used_bytes / 1024:.0f} KiB in "
            f"{cache.entry_count} entries",
            _bar(
                "positional map",
                pm.used_bytes / budget if budget else 0.0,
                width,
            )
            + f"  {pm.used_bytes / 1024:.0f} KiB in {pm.chunk_count} chunks"
            f" (+{pm.line_index_bytes / 1024:.0f} KiB line index)",
            "",
            "file coverage (m=map, c=cache, B=both, .=unknown):",
            *self.coverage_grid(),
        ]
        usage = self.state.attribute_usage
        if usage:
            lines.append("")
            lines.append("attribute usage (queries touching each attribute):")
            schema = self.state.entry.schema
            peak = max(usage.values())
            for attr in sorted(usage):
                count = usage[attr]
                bar = "#" * max(1, int(count / peak * 20))
                lines.append(
                    f"{schema.columns[attr].name:>12s} {bar} {count}"
                )
        return "\n".join(lines)


def _bar(label: str, fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return (
        f"{label:>18s} [{'#' * filled}{'.' * (width - filled)}] "
        f"{fraction * 100:5.1f}%"
    )
