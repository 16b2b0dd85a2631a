"""ASCII monitoring panels reproducing (and extending) the demo's GUI.

* :mod:`repro.monitor.breakdown` — the Query Execution Breakdown panel
  (Figure 3): stacked Processing/IO/Convert/Parsing/Tokenizing/NoDB bars;
* :mod:`repro.monitor.panel` — the System Monitoring Panel (Figure 2):
  cache utilization, positional-map storage, file-coverage shading;
* :mod:`repro.monitor.usage` — attribute access statistics;
* :mod:`repro.monitor.governor` — the serving-layer panel: global
  memory-budget residency per table, governor pressure counters,
  scheduler occupancy and per-table lock contention;
* :mod:`repro.monitor.connections` — the wire-server panel: open
  connections, frame/row throughput and per-connection TTFB;
* :mod:`repro.monitor.shards` — the shard-cluster panel: per-shard
  query/row load shares from the coordinator's relayed STATS.
"""

from .breakdown import BreakdownReport, render_breakdown
from .connections import connections_report, render_connections_panel
from .governor import (
    governor_report,
    render_concurrency_panel,
    render_governor_panel,
)
from .panel import SystemMonitorPanel
from .shards import render_shard_panel, shard_report
from .usage import (
    query_signature_stats,
    render_attribute_usage,
    render_query_signatures,
)

__all__ = [
    "BreakdownReport",
    "render_breakdown",
    "connections_report",
    "render_connections_panel",
    "governor_report",
    "render_concurrency_panel",
    "render_governor_panel",
    "SystemMonitorPanel",
    "render_shard_panel",
    "shard_report",
    "query_signature_stats",
    "render_attribute_usage",
    "render_query_signatures",
]
