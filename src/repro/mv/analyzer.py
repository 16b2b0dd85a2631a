"""Workload mining: which aggregates deserve materialization?

The NoDB thesis one level up: positional maps and caches are built from
the byte ranges queries touch; the analyzer applies the same adaptive
logic to *query shapes*.  Every planned aggregate query records its
:class:`repro.mv.signature.QuerySignature`; every raw (non-MV-served)
completion records its observed cost from ``QueryMetrics``.  Candidates
are ranked by **benefit-per-byte** —

    seconds saved per repeat / estimated result bytes

— the exact currency the :class:`repro.service.MemoryGovernor` evicts
by, so a suggestion's rank predicts how well the resulting MV will
compete against positional-map chunks and cache entries once resident.

``mv_auto=True`` closes the loop by rent-or-buy, as columnstore loads
do: each completed raw run adds its seconds to the signature's *rent*,
and bytes are bought once the rent reaches their *price*
(:meth:`repro.service.MemoryGovernor.price`, what their grant would
evict) — the estimated result's by the plan (its second raw run while
the budget does not bind; a one-off never), the real ones by the
install, a tail-merge's growth by the merge.  A refused capture and an
invalidated table start the rent over.  Explicit
``service.build_mv(sql)`` uses the same machinery with a force flag
(which also suppresses serving for that signature, so a wider partial
match cannot shadow the build).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .signature import QuerySignature

#: Fallback result-size estimate when table statistics cannot price a
#: candidate (no distinct counts yet): one typical aggregate batch.
DEFAULT_RESULT_BYTES = 4096

#: Signatures the analyzer remembers; past it, the least recently
#: planned one that is neither forced, owed a refused run nor held by
#: a resident MV (its rent buys the MV's growth) goes.
MAX_SIGNATURES = 256


@dataclass
class SignatureStats:
    """Mined history of one query shape."""

    signature: QuerySignature
    #: Times the planner saw this shape (hits and misses alike).
    repeats: int = 0
    #: Completed executions that took the raw path.
    raw_runs: int = 0
    raw_seconds_total: float = 0.0
    #: Completed executions served from an MV (exact or partial).
    served_runs: int = 0
    served_seconds_total: float = 0.0
    #: Raw seconds paid toward a capture since the last refusal or
    #: invalidation (rent-or-buy).
    rent_s: float = 0.0
    #: Refused captures whose runs have yet to complete: the rent they
    #: would pay is already forfeit.
    unpaid: int = 0

    def mean_raw_seconds(self) -> float:
        return self.raw_seconds_total / self.raw_runs if self.raw_runs else 0.0

    def mean_served_seconds(self) -> float:
        n = self.served_runs
        return self.served_seconds_total / n if n else 0.0


class WorkloadAnalyzer:
    """Signature frequencies, observed costs, and capture decisions:
    ``estimator(sig)`` sizes a result (``None``: unknown), ``price(sig,
    nbytes)`` is what admitting it would evict, in benefit-seconds,
    and ``resident(sig)`` tells whether an MV captured from ``sig`` is
    held."""

    def __init__(
        self,
        auto: bool,
        estimator=lambda sig: None,
        price=lambda s, n: 0.0,
        resident=lambda sig: False,
    ) -> None:
        self.auto = auto
        self.estimator = estimator
        self.price = price
        self.resident = resident
        self._lock = threading.Lock()
        self._stats: dict[QuerySignature, SignatureStats] = {}
        self._forced: dict[QuerySignature, int] = {}

    # ------------------------------------------------------------------
    # Mining (plan time + retire time).
    # ------------------------------------------------------------------

    def _entry(self, sig: QuerySignature) -> SignatureStats:
        """``sig``'s stats, added if new; ``_stats`` runs least recently
        planned first.  Callers hold the lock (``resident`` takes the
        governor's inside it; no governor-locked path calls in here)."""
        held = self._stats
        if sig not in held and len(held) >= MAX_SIGNATURES:
            for old, stats in held.items():
                if not (
                    old in self._forced or stats.unpaid or self.resident(old)
                ):
                    del held[old]
                    break
        return held.setdefault(sig, SignatureStats(sig))

    def note_planned(self, sig: QuerySignature) -> int:
        """Record one planned occurrence; returns the repeat count."""
        with self._lock:
            stats = self._entry(sig)
            self._stats[sig] = self._stats.pop(sig)  # now the latest
            stats.repeats += 1
            return stats.repeats

    def note_completed(
        self, sig: QuerySignature, decision: str | None, seconds: float
    ) -> None:
        """Record one finished execution's observed cost.

        ``decision`` is the plan's MV verdict: ``"exact"``/``"partial"``
        executions measure the served cost; anything else measures the
        raw scan+aggregate cost an MV would save.
        """
        with self._lock:
            stats = self._entry(sig)
            if decision in ("exact", "partial"):
                stats.served_runs += 1
                stats.served_seconds_total += seconds
            else:
                stats.raw_runs += 1
                stats.raw_seconds_total += seconds
                if stats.unpaid:
                    stats.unpaid -= 1
                else:
                    stats.rent_s += seconds

    def refuse(self, sig: QuerySignature) -> None:
        """A refused capture: the rent starts over, and the run that
        made it pays none when it completes."""
        with self._lock:
            stats = self._entry(sig)
            stats.rent_s = 0.0
            stats.unpaid += 1

    def reset_rent(self, table: str) -> None:
        """An invalidated or dropped table's signatures pay anew."""
        with self._lock:
            for stats in self._stats.values():
                if stats.signature.table == table:
                    stats.rent_s = 0.0

    def observed_seconds(self, sig: QuerySignature) -> float:
        """Mean raw cost of this shape (0.0 when never run raw)."""
        with self._lock:
            stats = self._stats.get(sig)
            return stats.mean_raw_seconds() if stats is not None else 0.0

    # ------------------------------------------------------------------
    # Capture decisions.
    # ------------------------------------------------------------------

    def force(self, sig: QuerySignature) -> None:
        """Pin a signature for capture-on-next-execution (build_mv)."""
        with self._lock:
            self._forced[sig] = self._forced.get(sig, 0) + 1

    def unforce(self, sig: QuerySignature) -> None:
        with self._lock:
            count = self._forced.get(sig, 0) - 1
            if count <= 0:
                self._forced.pop(sig, None)
            else:
                self._forced[sig] = count

    def is_forced(self, sig: QuerySignature) -> bool:
        with self._lock:
            return sig in self._forced

    def should_capture(
        self, sig: QuerySignature, already_materialized: bool
    ) -> bool:
        return (
            not already_materialized
            and (self.auto or self.is_forced(sig))
            and self.affords(sig, self.est_bytes(sig))
        )

    def affords(self, sig: QuerySignature, nbytes: int) -> bool:
        """Rent-or-buy: may ``sig`` take ``nbytes`` now — a forced build
        always, else once its rent is paid and at least their price."""
        with self._lock:
            if sig in self._forced:
                return True
            stats = self._stats.get(sig)
            rent = stats.rent_s if stats is not None else 0.0
        # A signature that never completed raw costs no governor walk.
        return rent > 0 and rent >= self.price(sig, nbytes)

    def est_bytes(self, sig: QuerySignature) -> int:
        return self.estimator(sig) or DEFAULT_RESULT_BYTES

    # ------------------------------------------------------------------
    # Ranking / suggestions.
    # ------------------------------------------------------------------

    def suggestions(
        self, materialized=frozenset(), limit: int = 10
    ) -> list[dict[str, object]]:
        """Candidates ranked by benefit-per-byte, best first, each with
        its rent and price (``candidate`` once the rent covers it);
        ``materialized`` signatures are reported as such."""
        with self._lock:
            ranked = sorted(
                (
                    (s, s.rent_s, self.est_bytes(s.signature))
                    for s in self._stats.values()
                ),
                key=lambda h: (
                    h[0].signature in materialized,
                    -h[0].mean_raw_seconds() / max(h[2], 1) * h[0].repeats,
                    -h[0].repeats,
                ),
            )[:limit]
        rows = []
        # Priced after the cut: one governor walk per row shown.
        for stats, rent, est_bytes in ranked:
            sig, saved = stats.signature, stats.mean_raw_seconds()
            price = self.price(sig, est_bytes)
            status = "candidate" if 0 < rent >= price else "cold"
            if sig in materialized:
                status = "materialized"
            rows.append(
                {
                    "signature": sig.label(),
                    "table": sig.table,
                    "repeats": stats.repeats,
                    "raw_runs": stats.raw_runs,
                    "served_runs": stats.served_runs,
                    "mean_raw_seconds": round(saved, 6),
                    "mean_served_seconds": round(
                        stats.mean_served_seconds(), 6
                    ),
                    "est_result_bytes": est_bytes,
                    "benefit_per_byte": saved / max(est_bytes, 1),
                    "rent_s": round(rent, 6),
                    "price_s": round(price, 6),
                    "status": status,
                }
            )
        return rows

    def signature_count(self) -> int:
        with self._lock:
            return len(self._stats)
