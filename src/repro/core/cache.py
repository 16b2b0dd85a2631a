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
  (nearly free to re-slice, ~50+ bytes/value).

The cache is a :class:`repro.core.ledger.GovernedLedger` keyed by
attribute number: admission, growth, eviction, invalidation and recency
are the ledger's.  What is the cache's own is the coverage rule (a
deeper prefix replaces a shallower one, never the reverse) and
appending a tail onto an entry's vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..batch import ColumnVector
from .ledger import GovernedLedger, now


@dataclass
class CacheEntry:
    """Binary values of one attribute over rows ``0 .. len(vector)``.

    ``benefit_seconds`` is the measured conversion time this entry saves
    per full read (fed by the scan when the column was materialized).
    """

    attr: int
    vector: ColumnVector
    nbytes: int = 0
    benefit_seconds: float = 0.0
    last_used_ts: float = field(default_factory=now)

    def __post_init__(self) -> None:
        if self.nbytes == 0:
            self.nbytes = self.vector.nbytes()

    @property
    def rows(self) -> int:
        return len(self.vector)


class RawDataCache(GovernedLedger):
    """Governed cache of adaptively loaded binary columns for one file.

    "Overall, the PostgresRaw cache can be seen as the place holder for
    adaptively loaded data."  ``governor`` is the engine's
    :class:`repro.service.MemoryGovernor`, which admits (and may
    reclaim) every byte the cache holds.
    """

    def utilization(self) -> float:
        """Fraction of the engine budget this cache holds — the Figure 2
        panel series."""
        budget = self.governor.budget_bytes
        return self.used_bytes / float(budget) if budget > 0 else 0.0

    def get(self, attr: int) -> CacheEntry | None:
        entry = self.peek(attr)
        if entry is not None:
            self.touch(entry)
        return entry

    def pin(self, attr: int, rows: int, metrics=None) -> CacheEntry | None:
        """The entry of ``attr`` if it holds at least ``rows`` rows (an
        entry is touched either way).  A scan reads what it pinned, so
        an eviction meanwhile does not change its answer."""
        entry = self.get(attr)
        return entry if entry is not None and entry.rows >= rows else None

    @staticmethod
    def read(entry: CacheEntry, lo: int, hi: int, sel, metrics=None):
        """Rows ``[lo, hi)`` (or the ``sel`` subset) of a pinned entry."""
        if sel is not None:
            return entry.vector.take(sel)
        return entry.vector.slice(lo, hi)

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
        with self.governor.lock:
            existing = self.peek(attr)
            if existing is not None and existing.rows >= len(vector):
                self.touch(existing)
                return True
            entry = CacheEntry(attr, vector, benefit_seconds=benefit_seconds)
            return self.admit(attr, entry, protected or ())

    def extend(self, attr: int, tail: ColumnVector) -> bool:
        """Append rows to an entry (post-append reconciliation)."""
        with self.governor.lock:
            entry = self.peek(attr)
            if entry is None:
                return False
            extra = tail.nbytes()
            if not self.grow(attr, extra):
                return False
            entry.vector = ColumnVector.concat([entry.vector, tail])
            entry.nbytes += extra
            self.touch(entry)
            return True

    def coverage_rows(self, attr: int) -> int:
        entry = self.peek(attr)
        return 0 if entry is None else entry.rows

    def cached_attrs(self) -> list[int]:
        return sorted(e.attr for e in self.entries())

    def describe(self) -> list[dict[str, object]]:
        """Entry inventory for the monitoring panel."""
        at = now()
        return [
            {
                "attr": e.attr,
                "rows": e.rows,
                "nbytes": e.nbytes,
                "idle_s": round(at - e.last_used_ts, 3),
            }
            for e in sorted(self.entries(), key=lambda e: e.attr)
        ]
