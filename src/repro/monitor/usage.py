"""Workload usage statistics.

"we provide usage statistics regarding the accessed attributes of the
raw data file" — per-attribute query-touch counts, rendered standalone
(the panel embeds the same data).  The same mining now extends one
level up to whole query shapes: :func:`query_signature_stats` ranks
mined aggregate signatures by benefit-per-byte — the seconds a
materialized aggregate would save per repeat, divided by its estimated
result size — the same currency the memory governor evicts by."""

from __future__ import annotations

from ..core.table_state import RawTableState


def attribute_usage_counts(state: RawTableState) -> dict[str, int]:
    """Column name -> number of queries that touched it."""
    schema = state.entry.schema
    return {
        schema.columns[attr].name: count
        for attr, count in sorted(state.attribute_usage.items())
    }


def render_attribute_usage(state: RawTableState, width: int = 30) -> str:
    counts = attribute_usage_counts(state)
    if not counts:
        return "(no attributes accessed yet)"
    peak = max(counts.values())
    name_width = max(len(n) for n in counts)
    lines = []
    for name, count in counts.items():
        bar = "#" * max(1, int(count / peak * width))
        lines.append(f"{name.rjust(name_width)} {bar} {count}")
    return "\n".join(lines)


def query_signature_stats(service, limit: int = 10) -> list[dict[str, object]]:
    """Mined aggregate-query shapes ranked by benefit-per-byte.

    Each row carries the signature label, how often the planner saw it,
    observed raw vs MV-served cost, the statistics-estimated result
    size, the raw seconds paid toward a capture (rent) against what
    admitting it would evict (price), and its status (``materialized``
    / ``candidate``: rent paid and at least the price / ``cold``).
    """
    mv = service.mv
    materialized = {e.signature for e in mv.catalog.entries()}
    return mv.analyzer.suggestions(materialized, limit=limit)


def render_query_signatures(service, limit: int = 10) -> str:
    """The mined workload as an ASCII table (panel embeds the same)."""
    rows = query_signature_stats(service, limit=limit)
    if not rows:
        return "(no aggregate signatures mined yet)"
    lines = [
        "signature  repeats  raw-ms  served-ms  est-KiB  rent-ms  price-ms"
        "  status"
    ]
    for row in rows:
        lines.append(
            f"{row['signature']}  x{row['repeats']}  "
            f"{row['mean_raw_seconds'] * 1000:.2f}  "
            f"{row['mean_served_seconds'] * 1000:.2f}  "
            f"{row['est_result_bytes'] / 1024:.1f}  "
            f"{row['rent_s'] * 1000:.2f}  {row['price_s'] * 1000:.2f}  "
            f"{row['status']}"
        )
    return "\n".join(lines)
