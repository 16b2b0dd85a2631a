"""Governor + concurrency monitoring panel.

Extends the demo's Figure 2 storage view to the serving layer: where
the per-table panel shows *one* table's structures and their share of
the engine budget, this panel shows the engine-wide picture —

* the ``memory_budget`` bar and how the resident bytes split across
  every table's governed structures ("live per-table residency"),
* governor pressure counters (evictions, cross-table evictions,
  rejected grants, bytes released by ``drop_table``),
* scheduler occupancy (active/waiting/peaks, admissions/rejections),
* per-table reader-writer lock contention, with wait/hold latency
  percentiles from the telemetry registry.

Both panels render **from the engine-wide telemetry registry snapshot**
(:meth:`repro.telemetry.MetricsRegistry.snapshot`): the service
registers each component's stats as a named collector, so the panel,
the ``STATS`` wire command and the Prometheus exporter all read the
same numbers from the same place.
"""

from __future__ import annotations

from ..service.service import PostgresRawService


def governor_report(service: PostgresRawService) -> dict[str, object]:
    """The governor panel's data: stats plus per-table residency rows.

    Pulled from the registry snapshot's ``governor`` and ``residency``
    collectors.
    """
    collectors = service.telemetry.registry.snapshot()["collectors"]
    return {
        "stats": collectors["governor"],
        "residency": collectors["residency"],
        "kernels": collectors.get("kernels"),
        "mv": collectors.get("mv"),
    }


def render_governor_panel(service: PostgresRawService, width: int = 40) -> str:
    """The global memory picture as an ASCII panel."""
    report = governor_report(service)
    stats = report["stats"]
    residency = report["residency"]
    budget = stats["budget_bytes"]
    used = stats["used_bytes"]
    fraction = used / budget if budget else 0.0
    lines = [
        "=== Memory Governor ===",
        _bar("global budget", fraction, width)
        + f"  {used / 1024:.0f} / {budget / 1024:.0f} KiB",
        f"evictions: {stats['evictions']} "
        f"(cross-table: {stats['cross_evictions']})  "
        f"rejected grants: {stats['rejected_grants']}  "
        f"released: {stats['released_bytes'] / 1024:.0f} KiB",
    ]
    kernels = report.get("kernels")
    if kernels:
        lines.append(
            f"scan kernels: {kernels['entries']}/{kernels['capacity']} "
            f"cached  hits: {kernels['hits']}  misses: {kernels['misses']}"
            f"  evictions: {kernels['evictions']}"
            f"  build: {kernels['build_seconds'] * 1000:.2f} ms"
        )
    mv = report.get("mv")
    if mv:
        lines.append(
            f"aggregate cache: {mv['mvs']} MVs / "
            f"{mv['bytes'] / 1024:.0f} KiB  hits: {mv['hits']}"
            f" (+{mv['partial_hits']} partial)  misses: {mv['misses']}"
            f"  builds: {mv['builds']}  evictions: {mv['evictions']}"
            f"  invalidated: {mv['invalidations']}"
            f"  tail-merges: {mv['tail_merges']}"
        )
        for entry in mv.get("entries", []):
            lines.append(
                f"  mv#{entry['mv_id']} {entry['signature']}  "
                f"{entry['groups']} groups over {entry['rows']} rows / "
                f"{entry['nbytes'] / 1024:.1f} KiB"
                f"  hits {entry['hits']}+{entry['partial_hits']}p"
                f"  benefit {entry['benefit_seconds'] * 1000:.1f} ms"
            )
    lines.append("")
    lines.append("per-table residency:")
    total = sum(r["nbytes"] for r in residency) or 1
    for row in residency:
        share = row["nbytes"] / total
        bar = "#" * max(int(share * 20), 1 if row["nbytes"] else 0)
        lines.append(
            f"{row['table']:>12s}/{row['kind']:<11s} "
            f"{row.get('format', '-'):<5s} "
            f"[{bar:<20s}] {row['nbytes'] / 1024:8.0f} KiB "
            f"in {row['items']} items"
        )
    return "\n".join(lines)


def render_concurrency_panel(service: PostgresRawService) -> str:
    """Scheduler occupancy, streaming cursors, query latency and lock
    contention — all read off one registry snapshot."""
    snapshot = service.telemetry.registry.snapshot()
    collectors = snapshot["collectors"]
    sched = collectors.get("scheduler") or {}
    cursors = collectors.get("cursors") or {}
    histograms = snapshot.get("histograms", {})
    avg_ttfb = cursors.get("avg_ttfb_s")
    last_ttfb = cursors.get("last_ttfb_s")
    lines = [
        "=== Concurrency ===",
        (
            f"queries: {sched['active']} active / {sched['waiting']} waiting"
            f"  (peaks {sched['peak_concurrency']}/"
            f"{sched['peak_queue_depth']}, "
            f"cap {sched['max_concurrent']}+{sched['queue_depth']})"
        ),
        (
            f"admitted: {sched['admitted']}  completed: {sched['completed']}"
            f"  rejected: {sched['rejected']}"
            f"  queued: {sched.get('wait_seconds_total', 0.0) * 1000:.1f} ms"
            " total"
        ),
        (
            f"cursors: {cursors['open']} open / {cursors['opened']} opened"
            f"  (finished: {cursors['finished']}, "
            f"abandoned: {cursors['abandoned']})"
        ),
        (
            "time-to-first-batch: "
            + (
                f"{avg_ttfb * 1000:.1f} ms avg / "
                f"{last_ttfb * 1000:.1f} ms last"
                if avg_ttfb is not None and last_ttfb is not None
                else "(no batches streamed yet)"
            )
        ),
    ]
    latency = histograms.get("query_latency_seconds")
    if latency and latency.get("count"):
        lines.append(
            f"query latency: p50 {latency['p50'] * 1000:.1f} ms / "
            f"p95 {latency['p95'] * 1000:.1f} ms / "
            f"p99 {latency['p99'] * 1000:.1f} ms "
            f"over {latency['count']} queries"
        )
    lines.append("")
    lines.append("per-table lock traffic (shared/exclusive, waits in parens):")
    for name, stats in (collectors.get("locks") or {}).items():
        lines.append(
            f"{name:>12s}  reads {stats['read_acquisitions']}"
            f" ({stats['read_contentions']})"
            f"  writes {stats['write_acquisitions']}"
            f" ({stats['write_contentions']})"
        )
    return "\n".join(lines)


def _bar(label: str, fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return (
        f"{label:>18s} [{'#' * filled}{'.' * (width - filled)}] "
        f"{fraction * 100:5.1f}%"
    )
