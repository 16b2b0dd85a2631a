"""The adaptive positional map (paper §3.1).

The map "maintains low level metadata information on the structure of the
flat file" — the byte offsets where attributes begin inside each
tuple — so a later query can "jump directly to the correct position
without having to perform expensive tokenizing steps".

Faithful properties implemented here:

* **Populated as a side-effect of queries** — the scan operator records
  every position it discovers while tokenizing (not only the requested
  attributes: "if a query requires attributes in positions 10 and 15, all
  positions from 1 to 15 may be kept").
* **Chunked by attribute combination** — offsets of attributes accessed
  together live in one chunk (a ``(rows x attrs)`` int64 matrix), and the
  default policy indexes a *new* combination "if all requested attributes
  for a query belong in different chunks".
* **Bounded** — "the amount of storage space which is devoted to
  internal indexes" is the engine's one ``memory_budget``
  (:class:`repro.service.MemoryGovernor`): every install/extend asks
  the governor for room, competing with every table's chunks, cache
  entries, aggregates and promoted columns on benefit-per-byte (a
  chunk's benefit is the tokenizing time spent discovering it — the
  cost a future query pays again if it is evicted).  The tuple/line
  boundary index is pinned (it is the minimum structure needed to find
  tuples at all) and not charged.
* **Approximate jumps** — a query needing attribute ``a`` with no exact
  chunk can still anchor at the *nearest mapped attribute* ``a' <= a``
  and tokenize only the ``a - a'`` intervening fields.

Coverage is a row *prefix*: a chunk always describes rows ``0 .. rows``;
appends to the raw file extend chunks rather than invalidating them.

The map is a :class:`repro.core.ledger.GovernedLedger` keyed by each
chunk's ``attrs`` tuple: admission, growth, eviction, invalidation and
recency are the ledger's, and lookups iterate its snapshot, so
concurrent readers never observe a half-applied change.  What is the
map's own is subsumption (a chunk covered by a wider, deeper one is
redundant), anchors and the pinned line index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from .ledger import GovernedLedger, now


@dataclass
class PositionalChunk:
    """Offsets of one attribute combination over a row prefix.

    ``offsets[r, i]`` is the absolute start of attribute ``attrs[i]`` in
    row ``r``.  ``attrs`` is sorted ascending.  ``benefit_seconds`` is
    the measured tokenizing time that discovered these offsets — the
    rebuild cost a future query saves while the chunk is resident, used
    by the global memory governor's benefit-per-byte arbitration.
    """

    attrs: tuple[int, ...]
    offsets: np.ndarray
    benefit_seconds: float = 0.0
    last_used_ts: float = field(default_factory=now)

    def __post_init__(self) -> None:
        if tuple(sorted(self.attrs)) != self.attrs:
            raise ReproError("chunk attrs must be sorted")
        if self.offsets.ndim != 2 or self.offsets.shape[1] != len(self.attrs):
            raise ReproError(
                f"offsets shape {self.offsets.shape} does not match "
                f"{len(self.attrs)} attrs"
            )

    @property
    def rows(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.offsets.nbytes)

    def column_of(self, attr: int) -> int:
        """Index of ``attr`` inside this chunk (raises if absent)."""
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise ReproError(
                f"attr {attr} not in chunk {self.attrs}"
            ) from None

    def has_attr(self, attr: int) -> bool:
        return attr in self.attrs

    def starts_for(self, attr: int, row_from: int, row_to: int) -> np.ndarray:
        return self.offsets[row_from:row_to, self.column_of(attr)]


@dataclass
class AnchorHit:
    """Nearest mapped attribute at or below a requested one."""

    chunk: PositionalChunk
    attr: int
    column: int


class PositionalMap(GovernedLedger):
    """Governed collection of positional chunks for one file.

    ``governor`` is the engine's :class:`repro.service.MemoryGovernor`.
    """

    def __init__(self, governor) -> None:
        super().__init__(governor)
        self._line_bounds: np.ndarray | None = None
        #: Learned with the line index: some record ends in ``\r\n``,
        #: so scans trim a trailing ``\r`` per record (LF files skip it).
        self.crlf = False

    # ------------------------------------------------------------------
    # Line (tuple boundary) index — pinned backbone.
    # ------------------------------------------------------------------

    @property
    def line_bounds(self) -> np.ndarray | None:
        return self._line_bounds

    def set_line_bounds(self, bounds: np.ndarray, crlf: bool = False) -> None:
        self._line_bounds = np.asarray(bounds, dtype=np.int64)
        self.crlf = crlf

    @property
    def n_rows(self) -> int:
        if self._line_bounds is None:
            return 0
        return max(len(self._line_bounds) - 1, 0)

    @property
    def line_index_bytes(self) -> int:
        if self._line_bounds is None:
            return 0
        return int(self._line_bounds.nbytes)

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def best_cover(self, attr: int) -> PositionalChunk | None:
        """The chunk holding ``attr`` with the deepest row coverage (the
        most recently used one among equally deep chunks)."""
        best: PositionalChunk | None = None
        for chunk in self.entries():
            if chunk.has_attr(attr):
                rank = (chunk.rows, chunk.last_used_ts)
                if best is None or rank > (best.rows, best.last_used_ts):
                    best = chunk
        return best

    def pin(
        self, attr: int, rows: int, metrics=None
    ) -> PositionalChunk | None:
        """The deepest chunk holding ``attr`` if it covers at least
        ``rows`` rows, touched: a scan jumps through what it pinned."""
        chunk = self.best_cover(attr)
        if chunk is None or chunk.rows < rows:
            return None
        self.touch(chunk)
        return chunk

    def best_anchor(self, attr: int, min_rows: int) -> AnchorHit | None:
        """Nearest mapped attribute ``<= attr`` covering at least ``min_rows``.

        This implements "jump to the exact position of the file or as
        close as possible": tokenization can start at the anchor instead
        of the beginning of the tuple.
        """
        best: AnchorHit | None = None
        for chunk in self.entries():
            if chunk.rows < min_rows:
                continue
            candidates = [a for a in chunk.attrs if a <= attr]
            if not candidates:
                continue
            a = max(candidates)
            if best is None or a > best.attr:
                best = AnchorHit(chunk, a, chunk.column_of(a))
        return best

    # ------------------------------------------------------------------
    # Population.
    # ------------------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        """``entry_count`` under the name the monitors and the benchmark
        harness read."""
        return self.entry_count

    def install(
        self,
        attrs: tuple[int, ...],
        offsets: np.ndarray,
        protected: "set[tuple[int, ...]] | None" = None,
        benefit_seconds: float = 0.0,
    ) -> PositionalChunk | None:
        """Insert (or upgrade) a chunk; the governor evicts to fit.

        Returns the installed chunk, or ``None`` when the budget cannot
        accommodate it even after evicting everything evictable (a
        refused upgrade keeps the shallower chunk it would replace).
        ``protected`` chunks (by ``attrs``) are never evicted — the scan
        protects chunks it is reading from in the current query.
        """
        attrs = tuple(sorted(attrs))
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        n_rows = offsets.shape[0]
        with self.governor.lock:
            existing = self.peek(attrs)
            if existing is not None:
                if existing.rows >= n_rows:
                    self.touch(existing)
                    return existing
                benefit_seconds += existing.benefit_seconds

            # A combination chunk is redundant if some chunk already
            # covers a superset of its attributes at least as deeply
            # (which also makes a shallower exact chunk redundant).
            for chunk in self.entries():
                if set(attrs) <= set(chunk.attrs) and chunk.rows >= n_rows:
                    if existing is not None:
                        self._remove(attrs)
                    self.touch(chunk)
                    return chunk

            candidate = PositionalChunk(
                attrs, offsets, benefit_seconds=benefit_seconds
            )
            if not self.admit(attrs, candidate, protected or ()):
                return None
            self._drop_subsumed(candidate)
            return candidate

    def extend(
        self,
        chunk: PositionalChunk,
        more_offsets: np.ndarray,
        benefit_seconds: float = 0.0,
    ) -> bool:
        """Append rows to an existing chunk (append-reconciliation path)."""
        with self.governor.lock:
            if self.peek(chunk.attrs) is not chunk:
                return False
            more_offsets = np.ascontiguousarray(more_offsets, dtype=np.int64)
            if more_offsets.shape[1] != len(chunk.attrs):
                raise ReproError("extension width does not match chunk attrs")
            if not self.grow(chunk.attrs, more_offsets.nbytes):
                return False
            chunk.offsets = np.vstack([chunk.offsets, more_offsets])
            chunk.benefit_seconds += benefit_seconds
            self.touch(chunk)
            return True

    def _drop_subsumed(self, keeper: PositionalChunk) -> None:
        """Drop chunks whose attrs are a subset of ``keeper`` with no
        deeper coverage — they can never win a lookup again."""
        keep_attrs = set(keeper.attrs)
        self._remove_many(
            [
                chunk.attrs
                for chunk in self.entries()
                if chunk is not keeper
                and set(chunk.attrs) <= keep_attrs
                and chunk.rows <= keeper.rows
            ]
        )

    # ------------------------------------------------------------------
    # Maintenance / introspection.
    # ------------------------------------------------------------------

    def invalidate(self) -> int:
        """Drop everything (the raw file was rewritten)."""
        with self.governor.lock:
            self._line_bounds = None
            self.crlf = False
            return super().invalidate()

    def coverage_rows(self, attr: int) -> int:
        chunk = self.best_cover(attr)
        return 0 if chunk is None else chunk.rows

    def coverage_fraction(self, n_attrs: int, n_rows: int) -> float:
        """Fraction of (attribute, row) positions the map knows."""
        if n_attrs == 0 or n_rows == 0:
            return 0.0
        known = sum(
            min(self.coverage_rows(a), n_rows) for a in range(n_attrs)
        )
        return known / float(n_attrs * n_rows)

    def describe(self) -> list[dict[str, object]]:
        """Chunk inventory for the monitoring panel."""
        at = now()
        return [
            {
                "attrs": chunk.attrs,
                "rows": chunk.rows,
                "nbytes": chunk.nbytes,
                "idle_s": round(at - chunk.last_used_ts, 3),
            }
            for chunk in sorted(self.entries(), key=lambda c: c.attrs)
        ]
