"""The memory governor: one budget for *all* adaptive state.

Every engine runs under exactly one governor and it is the only
admission path: every positional-map chunk, cache entry, materialized
aggregate and promoted column of every table is charged against the
engine-wide ``PostgresRawConfig.memory_budget``, so a hot table can
use the room a cold one leaves idle.  Under pressure the governor
evicts the item with the lowest *benefit per byte* across the whole
engine:

* a cache entry's benefit is the conversion time it saves per read;
* a positional chunk's benefit is the tokenizing time that was spent
  discovering its offsets — the cost a future query pays again if the
  chunk is gone;
* an aggregate's is the scan+aggregate time it replaced, a promoted
  column's the conversion time it captured.

All are "seconds saved per byte held", so every kind competes in one
currency, across tables (the workload-driven partitioning observation:
what survives should be decided by the *workload*, not by which
structure happens to own the bytes).  Recency breaks ties, so an
all-cold engine degrades to global LRU.

**Benefit decay.**  With ``benefit_half_life_s`` set, an item's benefit
is aged by how long it has gone untouched: an expensive-to-rebuild
structure the workload stopped using loses half its effective
benefit-per-byte every half-life, so it eventually ranks below (and is
evicted in favor of) a cheaper but recently-useful one — the benefit
signal tracks the *current* workload instead of fossilizing the past.

Thread safety: the governor's reentrant ``lock`` serializes every
budget decision *and* every container mutation of the structures bound
to it (install, extend, evict), so a grant triggered by table A may
safely evict from table B while B's installer is one lock-acquire away.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Protocol


class GovernedStructure(Protocol):
    """What the governor needs from a governed structure (positional
    map, cache, a table's MVs, a columnstore tier).

    Structures report inventory as plain ``(token, nbytes,
    value_density, last_used, last_used_ts)`` tuples — keeping
    :mod:`repro.core` free of any import on this package — and the
    governor wraps them in :class:`GovernedItem` for arbitration.
    """

    def governed_bytes(self) -> int:
        """Bytes currently charged against the global budget."""

    def governed_items(self) -> list[tuple]:
        """Evictable inventory (pinned state, e.g. line indexes, excluded)."""

    def governed_evict(self, token: object) -> int:
        """Drop one item by token; returns the bytes freed."""


@dataclass
class GovernedItem:
    """One evictable unit of adaptive state (a chunk or a cache entry)."""

    structure: "GovernedStructure"
    token: object
    nbytes: int
    value_density: float  # seconds saved per byte held (decayed)
    last_used: int


class MemoryGovernor:
    """Arbitrates one byte budget across every registered structure.

    ``benefit_half_life_s`` (``None`` = no decay) ages each item's
    benefit-per-byte by its idle time when ordering eviction victims.
    """

    def __init__(
        self, budget_bytes: int, benefit_half_life_s: float | None = None
    ) -> None:
        self.budget_bytes = int(budget_bytes)
        self.benefit_half_life_s = benefit_half_life_s
        self.lock = threading.RLock()
        self._members: list[tuple[str, str, str, GovernedStructure]] = []
        self.evictions = 0
        self.cross_evictions = 0
        self.rejected_grants = 0
        self.released_bytes = 0

    # ------------------------------------------------------------------
    # Membership.
    # ------------------------------------------------------------------

    def register(
        self,
        structure: GovernedStructure,
        table: str,
        kind: str,
        fmt: str = "csv",
    ) -> None:
        """``fmt`` is the source-file format the structure indexes —
        every per-format structure competes in the same
        benefit-per-byte economy, the label is for the monitor panel."""
        with self.lock:
            self._members.append((table, kind, fmt, structure))

    def unregister_table(self, table: str) -> int:
        """Detach a dropped table's structures; returns bytes released."""
        with self.lock:
            freed = sum(
                s.governed_bytes()
                for t, _, _, s in self._members
                if t == table
            )
            self._members = [m for m in self._members if m[0] != table]
            self.released_bytes += freed
            return freed

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        with self.lock:
            return sum(s.governed_bytes() for _, _, _, s in self._members)

    def pressure(self) -> float:
        if self.budget_bytes <= 0:
            return 0.0
        return self.used_bytes / float(self.budget_bytes)

    # ------------------------------------------------------------------
    # Admission of new bytes.
    # ------------------------------------------------------------------

    def grant(
        self,
        requester: GovernedStructure,
        nbytes: int,
        protected: set | None = None,
    ) -> bool:
        """May ``requester`` grow by ``nbytes``?  Evicts to make room.

        ``protected`` tokens (interpreted by the requester structure —
        chunk ids for maps, attribute numbers for caches) are never
        evicted *from the requester*; other structures are fully up for
        grabs.  Returns ``False`` — and evicts nothing further — when
        the bytes cannot fit even after evicting everything evictable.
        """
        protected = protected or set()
        with self.lock:
            if nbytes > self.budget_bytes:
                self.rejected_grants += 1
                return False
            used = self.used_bytes
            if used + nbytes <= self.budget_bytes:
                return True
            # Build and order the cross-table inventory once; the lock
            # guarantees it cannot change while we walk it, and eviction
            # returns the exact bytes freed, so no re-summing per victim.
            for victim in self._victim_order(requester, protected):
                used -= victim.structure.governed_evict(victim.token)
                self.evictions += 1
                if victim.structure is not requester:
                    self.cross_evictions += 1
                if used + nbytes <= self.budget_bytes:
                    return True
            self.rejected_grants += 1
            return False

    def _victim_order(
        self, requester: GovernedStructure, protected: set
    ) -> list[GovernedItem]:
        """Evictable items, cheapest-to-lose first (decayed benefit)."""
        now = time.monotonic()
        candidates: list[GovernedItem] = []
        for _, _, _, structure in self._members:
            for (
                token,
                nbytes,
                density,
                last_used,
                last_used_ts,
            ) in structure.governed_items():
                if structure is requester and token in protected:
                    continue
                candidates.append(
                    GovernedItem(
                        structure,
                        token,
                        nbytes,
                        self._decayed(density, last_used_ts, now),
                        last_used,
                    )
                )
        candidates.sort(
            key=lambda i: (i.value_density, i.last_used, i.nbytes)
        )
        return candidates

    def _decayed(
        self, density: float, last_used_ts: float, now: float
    ) -> float:
        """Benefit-per-byte halved for every half-life of idleness."""
        if self.benefit_half_life_s is None:
            return density
        idle_s = max(now - last_used_ts, 0.0)
        return density * 0.5 ** (idle_s / self.benefit_half_life_s)

    # ------------------------------------------------------------------
    # Introspection (monitoring panel).
    # ------------------------------------------------------------------

    def residency(self) -> list[dict[str, object]]:
        """Per-structure residency for the governor panel."""
        with self.lock:
            return [
                {
                    "table": table,
                    "kind": kind,
                    "format": fmt,
                    "nbytes": structure.governed_bytes(),
                    "items": len(structure.governed_items()),
                }
                for table, kind, fmt, structure in self._members
            ]

    def stats(self) -> dict[str, object]:
        with self.lock:
            by_kind: dict[str, int] = {}
            for _, kind, _, structure in self._members:
                by_kind[kind] = (
                    by_kind.get(kind, 0) + structure.governed_bytes()
                )
        return {
            "budget_bytes": self.budget_bytes,
            "used_bytes": self.used_bytes,
            "pressure": round(self.pressure(), 4),
            "evictions": self.evictions,
            "cross_evictions": self.cross_evictions,
            "rejected_grants": self.rejected_grants,
            "released_bytes": self.released_bytes,
            "by_kind": by_kind,
        }
