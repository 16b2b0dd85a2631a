"""One governed ledger: the bookkeeping every governed tier shares.

The positional map, the raw-data cache, the columnstore tier and each
table's materialized aggregates all hold *entries* — a chunk, a cached
column, a promoted column, a captured aggregate — whose bytes the
engine's :class:`repro.service.MemoryGovernor` admits against its one
budget.  The tiers differ in their domain logic (map subsumption and
anchors, cache concatenation, columnstore files, MV matching and
tail-merges); what they share lives here, once:

* resident entries keyed by a stable token (an attribute, an attribute
  tuple, a query signature), each carrying ``nbytes``,
  ``benefit_seconds`` and ``last_used_ts``;
* the :class:`repro.service.governor.GovernedStructure` protocol;
* admission (grant an entry's bytes; on refusal keep the entry it would
  have superseded), growth of a resident entry (which protects the
  entry itself from its own grant), touch, invalidation, the insert /
  evict / reject counters and an eviction hook for side effects such as
  files and counters.

**One recency clock.**  Every touch stamps :func:`now`, the process-wide
monotonic clock, so ``last_used_ts`` orders any two entries of any two
tables and kinds: the governor's recency tie-break is a true global LRU.

**Concurrency.**  Every mutation runs under ``governor.lock``.  The
entry map is a snapshot that each write rebinds and never mutates in
place, so lock-free readers (a scan's cache lookup, the map's
``best_cover``) always iterate a whole map, old or new.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Iterable

#: The recency clock every touch is stamped with.
now = time.monotonic


class GovernedLedger:
    """Resident entries of one governed structure, keyed by token.

    An entry is any object with ``nbytes``, ``benefit_seconds`` and a
    writable ``last_used_ts``.  ``governor`` is the engine's
    :class:`repro.service.MemoryGovernor`.  ``on_evict`` runs,
    under the lock, for every entry the governor evicts.
    """

    def __init__(
        self, governor, on_evict: Callable[[object], None] | None = None
    ) -> None:
        self.governor = governor
        self._on_evict = on_evict
        self._entries: dict[Hashable, object] = {}
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    # GovernedStructure protocol (repro.service.MemoryGovernor).
    # ------------------------------------------------------------------

    def governed_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def governed_items(self) -> list[tuple[Hashable, int, float, float]]:
        """Evictable inventory: ``(token, nbytes, density,
        last_used_ts)``, density being benefit seconds per byte held —
        one currency for every kind."""
        return [
            (
                token,
                e.nbytes,
                e.benefit_seconds / max(e.nbytes, 1),
                e.last_used_ts,
            )
            for token, e in self._entries.items()
        ]

    def governed_evict(self, token: Hashable) -> int:
        """Evict one entry by token; returns the bytes freed."""
        with self.governor.lock:
            entry = self._remove(token)
            if entry is None:
                return 0
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(entry)
            return entry.nbytes

    # ------------------------------------------------------------------
    # Reads (lock-free: they see one snapshot).
    # ------------------------------------------------------------------

    def peek(self, token: Hashable):
        """The resident entry for ``token`` (no recency touch)."""
        return self._entries.get(token)

    def entries(self):
        """A snapshot of the resident entries."""
        return self._entries.values()

    # ``used_bytes`` and ``entry_count`` are the names the monitors and
    # the benchmark harness read.

    @property
    def used_bytes(self) -> int:
        return self.governed_bytes()

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------

    @staticmethod
    def touch(entry) -> None:
        entry.last_used_ts = now()

    def admit(
        self, token: Hashable, entry, protected: Iterable = ()
    ) -> bool:
        """Make ``entry`` the resident entry for ``token``.

        The superseded entry is released before the grant, so the
        governor sees the bytes coming back; when the grant is refused
        (``protected`` tokens and ``token`` itself are never evicted
        for it) the superseded entry stays and ``False`` is returned.
        """
        with self.governor.lock:
            superseded = self._remove(token)
            if not self.governor.grant(
                self, entry.nbytes, {token, *protected}
            ):
                self.rejections += 1
                if superseded is not None:
                    self._store(token, superseded)
                return False
            self.touch(entry)
            self._store(token, entry)
            self.insertions += 1
            return True

    def grow(self, token: Hashable, extra: int) -> bool:
        """May the resident entry for ``token`` grow by ``extra`` bytes?
        The governor may evict anything but the entry itself."""
        return self.governor.grant(self, extra, {token})

    def invalidate(self) -> int:
        """Drop every entry (the file was rewritten or the table
        dropped — not an eviction); returns how many."""
        with self.governor.lock:
            dropped = len(self._entries)
            self._entries = {}
            return dropped

    def _store(self, token: Hashable, entry) -> None:
        """Make ``entry`` resident without admission.  Callers hold the
        lock."""
        self._entries = {**self._entries, token: entry}

    def _remove(self, token: Hashable):
        """Drop one entry without counting it; returns it (or None)."""
        entry = self._entries.get(token)
        if entry is not None:
            self._remove_many((token,))
        return entry

    def _remove_many(self, tokens: Iterable[Hashable]) -> None:
        """Drop entries without counting them, in one copy of the
        snapshot (readers may still be iterating the old one)."""
        entries = dict(self._entries)
        for token in tokens:
            entries.pop(token, None)
        self._entries = entries
