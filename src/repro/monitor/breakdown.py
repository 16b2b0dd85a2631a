"""The Query Execution Breakdown panel (Figure 3).

Renders per-system stacked bars splitting execution time into
Processing / I/O / Convert / Parsing / Tokenizing / NoDB — the exact
categories of the demo's chart comparing PostgreSQL, the Baseline
(external files) and PostgresRaw (PM+C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.metrics import QueryMetrics

#: Stack order used by the figure (bottom to top).
COMPONENT_ORDER = (
    "processing",
    "io",
    "convert",
    "parsing",
    "tokenizing",
    "nodb",
)

_BAR_CHARS = {
    "processing": "#",
    "io": "=",
    "convert": "%",
    "parsing": "+",
    "tokenizing": "*",
    "nodb": "@",
}


@dataclass
class BreakdownReport:
    """Breakdown rows for a set of systems (one Figure 3 instance)."""

    rows: list[tuple[str, dict[str, float]]] = field(default_factory=list)

    def add(self, system: str, metrics: QueryMetrics) -> None:
        self.rows.append((system, metrics.component_seconds()))

    def add_components(
        self, system: str, components: dict[str, float]
    ) -> None:
        self.rows.append((system, dict(components)))

    def totals(self) -> dict[str, float]:
        return {
            system: sum(components.values())
            for system, components in self.rows
        }

    def as_table(self) -> list[dict[str, object]]:
        """The figure's data as printable records (benchmark output)."""
        records = []
        for system, components in self.rows:
            record: dict[str, object] = {"system": system}
            for name in COMPONENT_ORDER:
                record[name] = round(components.get(name, 0.0), 6)
            record["total"] = round(sum(components.values()), 6)
            records.append(record)
        return records


def render_breakdown(report: BreakdownReport, width: int = 60) -> str:
    """ASCII stacked horizontal bars, one per system."""
    totals = report.totals()
    peak = max(totals.values(), default=0.0)
    if peak <= 0:
        return "(no data)"
    name_width = max((len(s) for s, __ in report.rows), default=6)
    lines = []
    for system, components in report.rows:
        bar = []
        for name in COMPONENT_ORDER:
            seconds = components.get(name, 0.0)
            cells = int(round(seconds / peak * width))
            bar.append(_BAR_CHARS[name] * cells)
        total = totals[system]
        lines.append(
            f"{system.ljust(name_width)} |{''.join(bar).ljust(width)}| "
            f"{total * 1000:9.1f} ms"
        )
    legend = "  ".join(
        f"{_BAR_CHARS[name]}={name}" for name in COMPONENT_ORDER
    )
    lines.append(legend)
    return "\n".join(lines)

