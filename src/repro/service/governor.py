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
all-cold engine degrades to global LRU.  That tie-break is sound across
tables and kinds because there is one recency clock: every governed
structure keeps its entries in a
:class:`repro.core.ledger.GovernedLedger`, whose every touch stamps
the same monotonic clock (``last_used_ts``) — no structure keeps a
private counter whose values would not compare with another's.

**Pricing.**  :meth:`MemoryGovernor.price` is what a grant would evict
now, in benefit-seconds (``inf``: it cannot fit), evicting nothing — the
one admission rule for what is bought, not learned in passing: an
aggregate once its rent in raw seconds reaches it, a column load only
while it is finite.

Thread safety: the governor's reentrant ``lock`` serializes every
budget decision *and* every container mutation of the structures bound
to it (install, extend, evict), so a grant triggered by table A may
safely evict from table B while B's installer is one lock-acquire away.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Protocol


class GovernedStructure(Protocol):
    """What the governor needs from a governed structure (positional
    map, cache, a table's MVs, a columnstore tier).

    :class:`repro.core.ledger.GovernedLedger` is the one
    implementation: every governed tier keeps its entries in one.
    Structures report inventory as plain ``(token, nbytes,
    value_density, last_used_ts)`` tuples — keeping :mod:`repro.core`
    free of any import on this package — and the governor wraps them in
    :class:`GovernedItem` for arbitration.  Tokens are stable per
    structure (an attribute, an attribute tuple, a query signature);
    ``grant``'s ``protected`` set speaks the requester's tokens.
    """

    def governed_bytes(self) -> int:
        """Bytes currently charged against the global budget."""

    def governed_items(self) -> list[tuple]:
        """Evictable inventory (pinned state, e.g. line indexes, excluded)."""

    def governed_evict(self, token: object) -> int:
        """Drop one item by token; returns the bytes freed."""


@dataclass
class GovernedItem:
    """One evictable unit of adaptive state (a chunk, a cache entry, a
    promoted column or an aggregate)."""

    structure: "GovernedStructure"
    token: object
    nbytes: int
    value_density: float  # seconds saved per byte held
    last_used_ts: float


class MemoryGovernor:
    """Arbitrates one byte budget across every registered structure."""

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
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
        attribute tuples for maps, attribute numbers for caches and
        columnstores, signatures for MVs) are never evicted *from the
        requester*; other structures are fully up for grabs.  Returns
        ``False`` — and evicts nothing — when the bytes cannot fit even
        after evicting everything evictable.
        """
        with self.lock:
            victims = self._victims(requester, nbytes, protected)
            if victims is None:
                self.rejected_grants += 1
                return False
            for victim in victims:
                victim.structure.governed_evict(victim.token)
                self.evictions += 1
                if victim.structure is not requester:
                    self.cross_evictions += 1
            return True

    def price(
        self,
        requester: GovernedStructure | None,
        nbytes: int,
        protected: set | None = None,
    ) -> float:
        """The benefit-seconds ``grant(requester, nbytes, protected)``
        would evict now (0.0: they fit, ``inf``: they cannot)."""
        with self.lock:
            victims = self._victims(requester, nbytes, protected)
        if victims is None:
            return math.inf
        return sum(v.value_density * v.nbytes for v in victims)

    def _victims(
        self,
        requester: GovernedStructure | None,
        nbytes: int,
        protected: set | None,
    ) -> list[GovernedItem] | None:
        """The one victim walk (callers hold the lock): the items of
        :meth:`_victim_order` a grant of ``nbytes`` takes, or ``None``
        when evicting everything evictable would not make room."""
        excess = self.used_bytes + nbytes - self.budget_bytes
        if excess <= 0:
            return []
        victims = []
        for item in self._victim_order(requester, protected or set()):
            victims.append(item)
            excess -= item.nbytes
            if excess <= 0:
                return victims
        return None

    def _victim_order(
        self, requester: GovernedStructure | None, protected: set
    ) -> list[GovernedItem]:
        """Evictable items, cheapest-to-lose first (lowest benefit per
        byte), the least recently used first among equals."""
        candidates = [
            GovernedItem(structure, token, nbytes, density, last_used_ts)
            for _, _, _, structure in self._members
            for token, nbytes, density, last_used_ts in (
                structure.governed_items()
            )
            if structure is not requester or token not in protected
        ]
        candidates.sort(
            key=lambda i: (i.value_density, i.last_used_ts, i.nbytes)
        )
        return candidates

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
