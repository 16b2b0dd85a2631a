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
* **Bounded + LRU** — chunks are dropped least-recently-used first when
  the byte budget is exceeded; the tuple/line boundary index is pinned
  (it is the minimum structure needed to find tuples at all) and
  accounted separately.
* **Approximate jumps** — a query needing attribute ``a`` with no exact
  chunk can still anchor at the *nearest mapped attribute* ``a' <= a``
  and tokenize only the ``a - a'`` intervening fields.

Coverage is a row *prefix*: a chunk always describes rows ``0 .. rows``;
appends to the raw file extend chunks rather than invalidating them.

**Global governance.**  When the engine runs with a single
``memory_budget`` (:class:`repro.service.MemoryGovernor`), the map is
*bound* to the governor: the local ``budget_bytes`` silo is ignored and
every install/extend asks the governor for room instead, competing with
every other table's chunks and cache entries on benefit-per-byte (a
chunk's benefit is the tokenizing time spent discovering it — the cost
a future query pays again if it is evicted).  Container mutations are
then serialized under the governor's lock, and lookups iterate
snapshots, so concurrent readers never observe a half-applied change.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError


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
    last_used: int = 0
    benefit_seconds: float = 0.0
    #: Wall-clock of the last touch — the shared time base the global
    #: governor's benefit half-life decays against (per-table LRU
    #: clocks are not comparable across tables).
    last_used_ts: float = field(default_factory=time.monotonic)

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

    @property
    def value_density(self) -> float:
        """Tokenizing seconds saved per byte of budget held."""
        return self.benefit_seconds / max(self.nbytes, 1)

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


class PositionalMap:
    """Budgeted, LRU-evicted collection of positional chunks for one file."""

    def __init__(
        self, budget_bytes: int, combination_policy: bool = True
    ) -> None:
        self.budget_bytes = budget_bytes
        self.combination_policy = combination_policy
        self._chunks: list[PositionalChunk] = []
        self._line_bounds: np.ndarray | None = None
        #: Learned with the line index: some record ends in ``\r\n``,
        #: so scans trim a trailing ``\r`` per record (LF files skip it).
        self.crlf = False
        self._clock = 0
        self.governor = None
        self.installs = 0
        self.evictions = 0
        self.rejected_installs = 0

    # ------------------------------------------------------------------
    # Global-governor binding (repro.service.MemoryGovernor).
    # ------------------------------------------------------------------

    def bind_governor(self, governor) -> None:
        """Hand budget arbitration to an engine-wide memory governor.

        The local ``budget_bytes`` silo stops applying; every byte this
        map wants is requested from (and may be reclaimed by) the
        governor instead.
        """
        self.governor = governor

    def _guard(self):
        """Serialize container mutations with the governor (if bound)."""
        if self.governor is not None:
            return self.governor.lock
        return nullcontext()

    def governed_bytes(self) -> int:
        """Bytes charged against the global budget (line index is pinned
        backbone state and stays exempt, exactly as with the local silo)."""
        return self.used_bytes

    def governed_items(self) -> list[tuple[object, int, float, int, float]]:
        """Evictable inventory:
        ``(token, nbytes, density, last_used, last_used_ts)``."""
        return [
            (id(c), c.nbytes, c.value_density, c.last_used, c.last_used_ts)
            for c in self._chunks
        ]

    def governed_evict(self, token: object) -> int:
        """Evict one chunk by token (``id``); returns bytes freed."""
        with self._guard():
            for chunk in self._chunks:
                if id(chunk) == token:
                    self._discard(chunk)
                    self.evictions += 1
                    return chunk.nbytes
        return 0

    def _discard(self, chunk: PositionalChunk) -> None:
        # Rebind instead of in-place remove: concurrent readers iterate
        # a snapshot reference and never see a list mid-mutation.
        self._chunks = [c for c in self._chunks if c is not chunk]

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

    def tick(self) -> int:
        """Advance the LRU clock (one tick per query)."""
        self._clock += 1
        return self._clock

    @property
    def clock(self) -> int:
        return self._clock

    def touch(self, chunk: PositionalChunk) -> None:
        chunk.last_used = self._clock
        chunk.last_used_ts = time.monotonic()

    def chunks(self) -> list[PositionalChunk]:
        return list(self._chunks)

    def find_exact(self, attrs: tuple[int, ...]) -> PositionalChunk | None:
        for chunk in self._chunks:
            if chunk.attrs == attrs:
                return chunk
        return None

    def best_cover(self, attr: int) -> PositionalChunk | None:
        """The chunk holding ``attr`` with the deepest row coverage."""
        best: PositionalChunk | None = None
        for chunk in self._chunks:
            if chunk.has_attr(attr):
                rank = (chunk.rows, chunk.last_used)
                if best is None or rank > (best.rows, best.last_used):
                    best = chunk
        return best

    def best_anchor(self, attr: int, min_rows: int) -> AnchorHit | None:
        """Nearest mapped attribute ``<= attr`` covering at least ``min_rows``.

        This implements "jump to the exact position of the file or as
        close as possible": tokenization can start at the anchor instead
        of the beginning of the tuple.
        """
        best: AnchorHit | None = None
        for chunk in self._chunks:
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
    def used_bytes(self) -> int:
        return sum(c.nbytes for c in self._chunks)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def install(
        self,
        attrs: tuple[int, ...],
        offsets: np.ndarray,
        protected: "set[int] | None" = None,
        benefit_seconds: float = 0.0,
    ) -> PositionalChunk | None:
        """Insert (or upgrade) a chunk, evicting LRU chunks to fit.

        Returns the installed chunk, or ``None`` when the budget cannot
        accommodate it even after evicting everything evictable.
        ``protected`` chunks (by ``id``) are never evicted — the scan
        protects chunks it is reading from in the current query.
        """
        attrs = tuple(sorted(attrs))
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        with self._guard():
            existing = self.find_exact(attrs)
            if existing is not None:
                if existing.rows >= offsets.shape[0]:
                    self.touch(existing)
                    return existing
                self._discard(existing)
                benefit_seconds += existing.benefit_seconds

            # A combination chunk is redundant if some chunk already
            # covers a superset of its attributes at least as deeply.
            for chunk in self._chunks:
                if (
                    set(attrs) <= set(chunk.attrs)
                    and chunk.rows >= offsets.shape[0]
                ):
                    self.touch(chunk)
                    return chunk

            candidate = PositionalChunk(
                attrs,
                offsets,
                last_used=self._clock,
                benefit_seconds=benefit_seconds,
            )
            if not self._make_room(candidate.nbytes, protected or set()):
                self.rejected_installs += 1
                return None
            self._chunks = self._chunks + [candidate]
            self.installs += 1
            self._drop_subsumed(candidate)
            return candidate

    def adopt(
        self, attrs: tuple[int, ...], offsets: np.ndarray
    ) -> PositionalChunk:
        """Insert a chunk verbatim, bypassing budget/eviction accounting.

        Used by parallel scan workers to seed their chunk-local maps with
        row slices of the shared map's chunks, so anchored tokenizing
        ("jump ... as close as possible") behaves identically inside a
        worker.  Worker-local maps are discarded after the merge, so no
        budget bookkeeping applies.
        """
        chunk = PositionalChunk(
            tuple(attrs),
            np.asarray(offsets, dtype=np.int64),
            last_used=self._clock,
        )
        self._chunks = self._chunks + [chunk]
        return chunk

    def extend(
        self,
        chunk: PositionalChunk,
        more_offsets: np.ndarray,
        benefit_seconds: float = 0.0,
    ) -> bool:
        """Append rows to an existing chunk (append-reconciliation path)."""
        with self._guard():
            if chunk not in self._chunks:
                return False
            more_offsets = np.ascontiguousarray(more_offsets, dtype=np.int64)
            if more_offsets.shape[1] != len(chunk.attrs):
                raise ReproError("extension width does not match chunk attrs")
            if not self._make_room(more_offsets.nbytes, {id(chunk)}):
                return False
            chunk.offsets = np.vstack([chunk.offsets, more_offsets])
            chunk.benefit_seconds += benefit_seconds
            self.touch(chunk)
            return True

    def _make_room(self, nbytes: int, protected: set[int]) -> bool:
        if self.governor is not None:
            # Engine-wide budget: the governor evicts across every
            # table's maps *and* caches on benefit-per-byte.
            return self.governor.grant(self, nbytes, protected)
        if nbytes > self.budget_bytes:
            return False
        while self.used_bytes + nbytes > self.budget_bytes:
            victim = self._lru_victim(protected)
            if victim is None:
                return False
            self._discard(victim)
            self.evictions += 1
        return True

    def _lru_victim(self, protected: set[int]) -> PositionalChunk | None:
        candidates = [c for c in self._chunks if id(c) not in protected]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.last_used)

    def _drop_subsumed(self, keeper: PositionalChunk) -> None:
        """Drop chunks whose attrs are a subset of ``keeper`` with no
        deeper coverage — they can never win a lookup again."""
        keep_attrs = set(keeper.attrs)
        doomed = {
            id(c)
            for c in self._chunks
            if c is not keeper
            and set(c.attrs) <= keep_attrs
            and c.rows <= keeper.rows
        }
        if doomed:
            self._chunks = [c for c in self._chunks if id(c) not in doomed]

    # ------------------------------------------------------------------
    # Maintenance / introspection.
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop everything (the raw file was rewritten)."""
        with self._guard():
            self._chunks = []
            self._line_bounds = None
            self.crlf = False

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
        return [
            {
                "attrs": chunk.attrs,
                "rows": chunk.rows,
                "nbytes": chunk.nbytes,
                "last_used": chunk.last_used,
            }
            for chunk in sorted(self._chunks, key=lambda c: c.attrs)
        ]
