"""The adaptive state PostgresRaw keeps for one registered raw file.

Coverage bookkeeping: cache entries, promoted columns and positional
chunks always cover a row *prefix*.  After an external append the old
prefix stays valid and scans stitch the new tail from the raw file,
extending the structures in place.
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..catalog.catalog import RawTableEntry
from ..config import DEFAULT_STATS_SAMPLE_SIZE, PostgresRawConfig
from ..storage.vertical import VerticalStore
from .cache import RawDataCache
from .positional_map import PositionalMap
from .stats import StatisticsStore


class RawTableState:
    """All adaptive state PostgresRaw keeps for one registered raw file.

    Everything here is a *side effect of queries*: it starts empty
    ("zero initialization overhead") and is built, refined and evicted
    as the workload evolves.  It owns the table's governed tiers —
    ``positional_map``, ``cache`` and, with ``vp_enabled``,
    ``columnstore`` (files under ``vp_root``) — and its statistics.
    ``governor`` admits every byte the tiers hold; ``registry`` counts
    the columnstore's loads, extends, reads and invalidations.
    """

    def __init__(
        self,
        entry: RawTableEntry,
        config: PostgresRawConfig,
        governor,
        registry,
        vp_root: Path | None = None,
    ) -> None:
        self.entry = entry
        self.config = config
        self.positional_map = PositionalMap(governor)
        # Synopsis windows are the scan's windows.
        self.cache = RawDataCache(governor, config.batch_size)
        self.columnstore: VerticalStore | None = None
        if config.vp_enabled:
            self.columnstore = VerticalStore(
                entry.name, vp_root, governor, registry, config.batch_size
            )
        #: The ladder's tiers, cheapest read first (each when enabled).
        self.tiers: list = []
        if config.enable_cache:
            self.tiers.append(self.cache)
        if self.columnstore is not None:
            self.tiers.append(self.columnstore)
        if config.enable_positional_map:
            self.tiers.append(self.positional_map)
        self.statistics = StatisticsStore(DEFAULT_STATS_SAMPLE_SIZE)
        self.fingerprint = None
        self.pending_append = False
        self.queries_executed = 0
        self.attribute_usage: dict[int, int] = {}
        #: Rent-or-buy loading (:mod:`repro.core.scan_plan`): per
        #: attribute, the raw bytes its selective positional-map jumps
        #: have read since it was last cached, loaded or extended, or
        #: its load refused.
        self.load_rent: dict[int, int] = {}
        #: Bumped on invalidation so deferred installs (read-path queries
        #: installing under the write lock *after* their scan) can detect
        #: that their harvested offsets describe a file that no longer
        #: exists.
        self.generation = 0
        self._usage_lock = threading.Lock()

    def begin_query(self) -> None:
        self.queries_executed += 1

    def record_usage(self, attrs: list[int]) -> None:
        with self._usage_lock:
            for attr in attrs:
                self.attribute_usage[attr] = (
                    self.attribute_usage.get(attr, 0) + 1
                )

    def pay_rent(self, attr: int, nbytes: int) -> None:
        with self._usage_lock:
            self.load_rent[attr] = self.load_rent.get(attr, 0) + nbytes

    def reset_rent(self, attr: int) -> None:
        with self._usage_lock:
            self.load_rent.pop(attr, None)

    def rents(self) -> dict[str, int]:
        """Each attribute's rent so far, by column name."""
        columns = self.entry.schema.columns
        with self._usage_lock:
            return {
                columns[attr].name: nbytes
                for attr, nbytes in sorted(self.load_rent.items())
            }

    def table_rows(self) -> int | None:
        """Rows as last reconciled; ``None`` while unknown (no line
        index kept, or an append not indexed yet)."""
        pm = self.positional_map
        if self.pending_append or pm.line_bounds is None:
            return None
        return pm.n_rows

    def coverage_rows(self, attr: int, tiers=None) -> int:
        """The deepest row prefix of ``attr`` one of ``tiers`` (default:
        the whole ladder) holds."""
        tiers = self.tiers if tiers is None else tiers
        return max((tier.coverage_rows(attr) for tier in tiers), default=0)

    def covers(self, attrs: list[int], tiers=None) -> bool:
        """Do ``tiers`` (default: the whole ladder) hold every row of
        each of ``attrs``?  A scan they cover discovers nothing about
        the file.  ``False`` while the table's rows are unknown."""
        n_rows = self.table_rows()
        return n_rows is not None and all(
            self.coverage_rows(attr, tiers) >= n_rows for attr in attrs
        )

    def invalidate(self) -> None:
        """The raw file was rewritten, or the table is dropped or its
        engine closed: drop every tier and the statistics."""
        self.generation += 1
        self.positional_map.invalidate()
        self.cache.invalidate()
        if self.columnstore is not None:
            self.columnstore.invalidate()
        self.statistics.invalidate()
        with self._usage_lock:
            self.load_rent.clear()
        self.pending_append = False
