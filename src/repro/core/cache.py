"""The raw-data cache (paper §3.2).

"PostgresRaw also contains a cache that temporarily holds previously
accessed data ... The cache holds binary data and is populated on-the-fly
during query processing."  An attribute found in the cache costs no I/O,
no tokenizing, no parsing and no conversion — the whole left side of the
Figure 3 stack disappears.

Faithful properties:

* **Only requested attributes are cached** — "caching does not force
  additional data to be parsed".
* **Positional-map-compatible layout** — entries are columnar binary
  vectors over a row *prefix*, the same coverage shape as positional
  chunks, "such that it is easy to integrate it in the PostgresRaw query
  flow" (a query may read rows 0..k from the cache and parse the tail via
  the map — exactly what happens after an append).
* **Cost-aware eviction under one budget** — "The size of the cache is
  a parameter that can be tuned depending on the resources", and
  "caching should give priority to attributes that are more expensive
  to parse and cheaper to maintain in memory e.g. integer attributes".
  Every byte an entry wants is granted by the engine's
  :class:`repro.service.MemoryGovernor`, which evicts the item with the
  lowest *conversion-seconds-saved per byte held* (recency as
  tie-break) across every structure it governs: an int64 column
  (costly ``int()`` parsing, 8 bytes/value) outranks a text column
  (nearly free to re-slice, ~50+ bytes/value).  Container mutations
  run under the governor's lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..batch import ColumnVector


@dataclass
class CacheEntry:
    """Binary values of one attribute over rows ``0 .. len(vector)``.

    ``benefit_seconds`` is the measured conversion time this entry saves
    per full read (fed by the scan when the column was materialized).
    """

    attr: int
    vector: ColumnVector
    last_used: int = 0
    nbytes: int = 0
    benefit_seconds: float = 0.0
    #: Wall-clock of the last touch — clocks tick per *query* and per
    #: table, so cross-table benefit decay (the governor's half-life)
    #: needs a shared time base.
    last_used_ts: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.nbytes == 0:
            self.nbytes = self.vector.nbytes()

    @property
    def rows(self) -> int:
        return len(self.vector)

    @property
    def value_density(self) -> float:
        """Conversion seconds saved per byte of budget held."""
        return self.benefit_seconds / max(self.nbytes, 1)


class RawDataCache:
    """Governed cache of adaptively loaded binary columns for one file.

    "Overall, the PostgresRaw cache can be seen as the place holder for
    adaptively loaded data."  ``governor`` is the engine's
    :class:`repro.service.MemoryGovernor`, which admits (and may
    reclaim) every byte the cache holds.
    """

    def __init__(self, governor) -> None:
        self.governor = governor
        self._entries: dict[int, CacheEntry] = {}
        self._clock = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected_insertions = 0

    # ------------------------------------------------------------------
    # GovernedStructure protocol (repro.service.MemoryGovernor).
    # ------------------------------------------------------------------

    def governed_bytes(self) -> int:
        return self.used_bytes

    def governed_items(self) -> list[tuple[object, int, float, int, float]]:
        """Evictable inventory:
        ``(token, nbytes, density, last_used, last_used_ts)``.

        The token is the attribute number; density is the cost-aware
        conversion-seconds-saved-per-byte signal, the same currency the
        positional map reports, so the governor can arbitrate across
        both structure kinds.
        """
        return [
            (attr, e.nbytes, e.value_density, e.last_used, e.last_used_ts)
            for attr, e in list(self._entries.items())
        ]

    def governed_evict(self, token: object) -> int:
        """Evict one entry by attribute token; returns bytes freed."""
        with self.governor.lock:
            entry = self._entries.get(token)
            if entry is None:
                return 0
            del self._entries[token]
            self.evictions += 1
            return entry.nbytes

    def tick(self) -> int:
        """Advance the recency clock (one tick per query)."""
        self._clock += 1
        return self._clock

    @property
    def used_bytes(self) -> int:
        return sum(e.nbytes for e in list(self._entries.values()))

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def utilization(self) -> float:
        """Fraction of the engine budget this cache holds — the Figure 2
        panel series."""
        budget = self.governor.budget_bytes
        return self.used_bytes / float(budget) if budget > 0 else 0.0

    def get(self, attr: int) -> CacheEntry | None:
        entry = self._entries.get(attr)
        if entry is not None:
            entry.last_used = self._clock
            entry.last_used_ts = time.monotonic()
        return entry

    def peek(self, attr: int) -> CacheEntry | None:
        """Like :meth:`get` but without refreshing recency."""
        return self._entries.get(attr)

    def put(
        self,
        attr: int,
        vector: ColumnVector,
        protected: set[int] | None = None,
        benefit_seconds: float = 0.0,
    ) -> bool:
        """Insert/replace the binary column for ``attr``.

        The governor evicts victims until the new entry fits; returns
        ``False`` (and keeps any older, shallower entry) if it cannot
        fit even after evicting everything unprotected.
        """
        protected = protected or set()
        with self.governor.lock:
            existing = self._entries.get(attr)
            if existing is not None and existing.rows >= len(vector):
                existing.last_used = self._clock
                existing.last_used_ts = time.monotonic()
                return True
            entry = CacheEntry(
                attr,
                vector,
                last_used=self._clock,
                benefit_seconds=benefit_seconds,
            )
            if existing is not None:
                # Release the superseded entry before asking for room so
                # the governed ledger reflects the bytes coming back.
                del self._entries[attr]
            if not self.governor.grant(
                self, entry.nbytes, protected | {attr}
            ):
                self.rejected_insertions += 1
                if existing is not None:
                    self._entries[attr] = existing  # keep the old prefix
                return False
            self._entries[attr] = entry
            self.insertions += 1
            return True

    def extend(self, attr: int, tail: ColumnVector) -> bool:
        """Append rows to an entry (post-append reconciliation)."""
        with self.governor.lock:
            entry = self._entries.get(attr)
            if entry is None:
                return False
            extra = tail.nbytes()
            if not self.governor.grant(self, extra, {attr}):
                return False
            entry.vector = ColumnVector.concat([entry.vector, tail])
            entry.nbytes += extra
            entry.last_used = self._clock
            entry.last_used_ts = time.monotonic()
            return True

    def invalidate(self) -> None:
        """Drop everything (the raw file was rewritten)."""
        with self.governor.lock:
            self._entries.clear()

    def coverage_rows(self, attr: int) -> int:
        entry = self._entries.get(attr)
        return 0 if entry is None else entry.rows

    def cached_attrs(self) -> list[int]:
        return sorted(self._entries)

    def describe(self) -> list[dict[str, object]]:
        """Entry inventory for the monitoring panel."""
        return [
            {
                "attr": e.attr,
                "rows": e.rows,
                "nbytes": e.nbytes,
                "last_used": e.last_used,
            }
            for e in sorted(self._entries.values(), key=lambda e: e.attr)
        ]
