"""PostgresRaw core: the paper's primary contribution.

* :mod:`repro.core.positional_map` — the adaptive positional map (§3.1)
* :mod:`repro.core.cache` — the binary data cache (§3.2)
* :mod:`repro.core.ledger` — the governed ledger every adaptive tier
  keeps its entries in (admission, eviction, one recency clock)
* :mod:`repro.core.stats` — on-the-fly statistics (§3.3)
* :mod:`repro.core.synopsis` — per-window min / max / NULL count of
  resident columns, which let a scan skip windows
* :mod:`repro.core.table_state` — a table's adaptive state: its tiers
  (map, cache, columnstore) and statistics
* :mod:`repro.core.scan_plan` — what one scan will do, decided once:
  pinned sources per row segment, kept windows, the parallel tail
* :mod:`repro.core.raw_scan` — the overridden scan operator (§3), which
  walks its plan
* :mod:`repro.core.install` — what a scan learned, installed into the
  tiers when it ends
* :mod:`repro.core.engine` — the PostgresRaw facade
* :mod:`repro.core.updates` — raw-file change detection (§4.2 Updates)
* :mod:`repro.core.metrics` — execution breakdown accounting (Figure 3)
"""

from .metrics import QueryMetrics, BreakdownComponent
from .positional_map import PositionalMap, PositionalChunk
from .cache import RawDataCache, CacheEntry
from .stats import StatisticsStore, AttributeStatistics
from .engine import PostgresRaw
from .updates import FileFingerprint, detect_change, FileChange

__all__ = [
    "QueryMetrics",
    "BreakdownComponent",
    "PositionalMap",
    "PositionalChunk",
    "RawDataCache",
    "CacheEntry",
    "StatisticsStore",
    "AttributeStatistics",
    "PostgresRaw",
    "FileFingerprint",
    "detect_change",
    "FileChange",
]
