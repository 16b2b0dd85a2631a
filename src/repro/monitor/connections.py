"""Wire-server connections panel.

Extends the serving-layer monitoring (scheduler occupancy, cursors,
locks — :mod:`repro.monitor.governor`) down to the socket front end:
open connections against ``max_connections``, frame/row traffic,
frames/s and bytes/s (every frame sent, control and ROWS_BIN alike)
over the server's uptime, and per-connection rows with each
connection's open stream count and last time-to-first-batch — the
interactive-latency signal OLA-style raw-data exploration cares about.

The server registers :meth:`RawServer.connection_stats` as the
``server`` collector of the engine's telemetry registry, so this panel
reads the same snapshot the ``STATS`` wire command and the Prometheus
exporter serve.
"""

from __future__ import annotations

from ..server.server import RawServer


def connections_report(server: RawServer) -> dict[str, object]:
    """The panel's data: the registry snapshot's ``server`` collector."""
    collectors = server.service.telemetry.registry.snapshot()["collectors"]
    report = collectors.get("server")
    if report is None:  # server built around a foreign registry
        report = server.connection_stats()
    return report


def render_connections_panel(server: RawServer, width: int = 40) -> str:
    """The socket front end as an ASCII panel."""
    stats = connections_report(server)
    open_n = stats["open"]
    cap = stats["max_connections"]
    fraction = open_n / cap if cap else 0.0
    lines = [
        f"=== Wire Server {stats['host']}:{stats['port']} "
        f"(up {stats['uptime_s']:.0f}s) ===",
        _bar("connections", fraction, width) + f"  {open_n}/{cap} open",
        (
            f"accepted: {stats['accepted']}  closed: {stats['closed']}"
            f"  rejected: {stats['rejected']}"
        ),
        (
            f"queries: {stats['queries']}  rows: {stats['rows_sent']}"
            f"  frames: {stats['frames_sent']}"
            f" ({stats['frames_per_s']:.1f}/s)"
            f"  errors: {stats['errors_sent']}"
            f"  streams refused: {stats['streams_refused']}"
        ),
        (
            f"sent: {stats['bytes_sent'] / 1024:.1f} KiB"
            f" ({stats['bytes_per_s'] / 1024:.1f} KiB/s)"
        ),
    ]
    connections = stats["connections"]
    if connections:
        lines.append("")
        lines.append(
            "conn        peer                 age     queries streams"
            "  frames    rows      ttfb"
        )
        for conn in connections:
            ttfb = conn["last_ttfb_s"]
            ttfb_cell = (
                f"{ttfb * 1000:>8.1f}ms" if ttfb is not None else "      (-)"
            )
            lines.append(
                f"#{conn['id']:<10d} {conn['peer']:<20s} "
                f"{conn['age_s']:>6.1f}s {conn['queries']:>7d} "
                f"{conn['streams']:>3d}/{conn['max_streams']:<3d} "
                f"{conn['frames_sent']:>7d} {conn['rows_sent']:>7d} "
                + ttfb_cell
                + ("  *streaming*" if conn["streaming"] else "")
            )
    return "\n".join(lines)


def _bar(label: str, fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return (
        f"{label:>18s} [{'#' * filled}{'.' * (width - filled)}] "
        f"{fraction * 100:5.1f}%"
    )
