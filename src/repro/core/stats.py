"""On-the-fly statistics (paper §3.3).

"We extend the PostgresRaw scan operator to create statistics on-the-fly
... only on requested attributes ... statistics are generated in an
adaptive way; as queries request more attributes of a raw file,
statistics are incrementally augmented to represent bigger subsets of
the data."

The scan feeds the converted values of *requested* attributes, with the
table row they start at, into :class:`StatisticsStore`, which keeps per
attribute a uniform sample, min/max, the null fraction and a
distinct-value estimate.  The optimizer consumes them through the same
selectivity API a conventional DBMS would use after ANALYZE.

**A sample keyed by table row.**  A row's *priority* is the splitmix64
finalizer of its row number, salted per column (name and ``seed``).  A
column's sample holds the values of the ``sample_size`` observed
non-NULL rows of smallest priority (bottom-k sampling): uniform without
replacement, and dependent only on *which* rows were observed — not on
batch size, call boundaries, column order or thread interleaving.  Once
full, it takes in only rows below its k-th priority.  It is a numpy
array of the column's own dtype; TEXT decodes only the codes that
enter it.  Each attribute keeps the row intervals it has observed and
folds only rows outside them, so re-converted rows (no cache, an
eviction, two concurrent scans) change no statistic.

One deliberate refinement over a literal reading of the paper: only
*full-column* reads feed the store.  Attributes materialized solely for
qualifying rows (selective tuple formation) are skipped, because a
filtered subset would bias the sample — the statistics arrive one query
later, when the attribute is first read unfiltered.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from ..batch import ColumnVector
from ..datatypes import DataType

_DEFAULT_SELECTIVITY_EQ = 0.005
_DEFAULT_SELECTIVITY_RANGE = 0.33

_U64 = np.uint64
#: splitmix64's gamma, finalizer multipliers and shifts: 0-d arrays,
#: the operands numpy's ufuncs take fastest on small arrays.
_GAMMA, _MIX1, _MIX2, _S30, _S27, _S31 = (
    np.array(c, dtype=_U64)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
    + (30, 27, 31)
)


def _priorities(rows: np.ndarray, salt: np.uint64) -> np.ndarray:
    """splitmix64's finalizer of ``salt + row * gamma``: rows never tie."""
    x = rows.astype(_U64) * _GAMMA + salt
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


@dataclass
class AttributeStatistics:
    """Incrementally maintained statistics for one attribute."""

    name: str
    dtype: DataType
    sample_size: int
    #: With ``name``, hashed into the ``salt`` of the row priorities.
    seed: int = 0
    salt: np.uint64 = field(init=False, repr=False)
    rows_seen: int = 0
    null_count: int = 0
    min_value: object = None
    max_value: object = None
    #: Up to ``sample_size`` non-NULL values, typed, by rising priority.
    sample: np.ndarray = field(init=False, repr=False)
    #: The priorities of ``sample``'s rows.
    _priority: np.ndarray = field(init=False, repr=False)
    #: Observed rows: the bounds of disjoint, non-touching ``[start,
    #: end)`` intervals, flat and in order.
    _seen: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        # TEXT samples hold the decoded strings.
        text = self.dtype is DataType.TEXT
        dtype = object if text else self.dtype.numpy_dtype
        self.sample = np.empty(0, dtype=dtype)
        self._priority = np.empty(0, dtype=_U64)
        key = f"{self.seed}:{self.name}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        self.salt = _U64(int.from_bytes(digest, "little"))

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def observe(self, vector: ColumnVector, row_from: int) -> None:
        """Fold ``vector``'s rows (table rows from ``row_from``) not
        observed before into the statistics."""
        pieces = self._claim(row_from, row_from + len(vector))
        if not pieces:
            return
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in pieces])
        if len(rows) < len(vector):
            vector = vector.take(rows - row_from)
        nulls = vector.null_mask
        null_in_batch = int(np.count_nonzero(nulls))
        self.rows_seen += len(rows)
        self.null_count += null_in_batch

        values = vector.values
        if null_in_batch:
            values, rows = values[~nulls], rows[~nulls]
        if not len(values):
            return
        # TEXT: codes order like their strings, so the extreme codes
        # name the extreme strings.
        extremes = values[[values.argmin(), values.argmax()]]
        if vector.dtype is DataType.TEXT:
            extremes = vector.dictionary[extremes]
        low, high = extremes.tolist()
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high

        # Bottom-k: the rows below the k-th priority (at most k of them,
        # decoded if TEXT) are sorted and merged into the sample.
        k = self.sample_size
        priority = _priorities(rows, self.salt)
        if len(self._priority) == k:
            below = priority < self._priority[-1]
            if not below.any():
                return
            values, priority = values[below], priority[below]
        order = np.argsort(priority)[:k]
        values, priority = values[order], priority[order]
        if vector.dtype is DataType.TEXT:
            values = vector.dictionary[values]
        merged = np.concatenate([self._priority, priority])
        # Two sorted runs: the stable sort (a merge sort) merges them.
        take = np.argsort(merged, kind="stable")[:k]
        self.sample = np.concatenate([self.sample, values])[take]
        self._priority = merged[take]

    def _claim(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The pieces of rows ``[lo, hi)`` not observed yet, in order;
        from now on they count as observed."""
        seen = self._seen
        i, j = bisect.bisect_left(seen, lo), bisect.bisect_right(seen, hi)
        # The points bound unseen, seen, ... rows (seen first if i odd).
        points = iter([lo, *seen[i:j], hi][i % 2 :])
        pieces = [(a, b) for a, b in zip(points, points) if a < b]
        if pieces:
            seen[i:j] = [lo][i % 2 :] + [hi][j % 2 :]
        return pieces

    # ------------------------------------------------------------------
    # Derived estimates.
    # ------------------------------------------------------------------

    @property
    def null_fraction(self) -> float:
        if self.rows_seen == 0:
            return 0.0
        return self.null_count / self.rows_seen

    def distinct_estimate(self) -> float:
        """Sample-scaled number of distinct values (GEE-style heuristic)."""
        n = len(self.sample)
        if not n:
            return 1.0
        d = len(np.unique(self.sample))
        non_null = max(self.rows_seen - self.null_count, n)
        if d < n / 2:
            return float(d)  # low-cardinality domain, sample saw it all
        return min(float(non_null), d * non_null / n)

    def selectivity_eq(self, value: object) -> float:
        """Estimated fraction of rows with ``attr = value``."""
        if value is None:
            return self.null_fraction
        n = len(self.sample)
        if not n:
            return _DEFAULT_SELECTIVITY_EQ
        matches = np.count_nonzero(self.sample == value)
        if matches:
            return max(matches / n, 1e-6) * (1 - self.null_fraction)
        return (1.0 / max(self.distinct_estimate(), 1.0)) * (
            1 - self.null_fraction
        )

    def selectivity_range(
        self,
        low: object | None,
        high: object | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows inside a (half-)open interval."""
        n = len(self.sample)
        if not n:
            return _DEFAULT_SELECTIVITY_RANGE
        sample = self.sample
        inside = np.ones(n, dtype=np.bool_)
        if low is not None:
            inside &= sample >= low if low_inclusive else sample > low
        if high is not None:
            inside &= sample <= high if high_inclusive else sample < high
        sel = np.count_nonzero(inside) / n
        return min(max(sel, 0.0), 1.0) * (1 - self.null_fraction)

    def selectivity_like_prefix(self, prefix: str) -> float:
        """Estimated fraction of rows matching ``LIKE 'prefix%'``."""
        n = len(self.sample)
        if not n:
            return _DEFAULT_SELECTIVITY_EQ
        count = 0
        if self.dtype is DataType.TEXT:
            texts = self.sample.astype(str)
            count = np.count_nonzero(np.char.startswith(texts, prefix))
        return max(count / n, 1e-6)


class StatisticsStore:
    """Per-table collection of :class:`AttributeStatistics`.

    One store exists per registered raw table; the conventional engines
    reuse the same class for their ANALYZE implementation, so optimizer
    behaviour is comparable across systems.
    """

    def __init__(
        self,
        sample_size: int = 1024,
        seed: int = 0x5EED,
    ) -> None:
        self.sample_size = sample_size
        self.seed = seed
        self._stats: dict[str, AttributeStatistics] = {}
        self._row_estimate = 0
        # Serializes sample/extrema updates: concurrent queries on the
        # service's shared read path feed the same store.  (Selectivity
        # reads stay lock-free — a momentarily stale estimate is fine.)
        self._write_lock = threading.Lock()

    def observe(self, name: str, vector: ColumnVector, row_from: int) -> None:
        """Fold ``vector``, the values of table rows ``[row_from,
        row_from + len(vector))``, into ``name``'s statistics."""
        with self._write_lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = AttributeStatistics(
                    name=name,
                    dtype=vector.dtype,
                    sample_size=self.sample_size,
                    seed=self.seed,
                )
                self._stats[name] = stats
            stats.observe(vector, row_from)

    def set_row_estimate(self, n_rows: int) -> None:
        with self._write_lock:
            self._row_estimate = max(self._row_estimate, n_rows)

    @property
    def row_estimate(self) -> int:
        return self._row_estimate

    def get(self, name: str) -> AttributeStatistics | None:
        return self._stats.get(name)

    def attribute_names(self) -> list[str]:
        return sorted(self._stats)

    def invalidate(self) -> None:
        with self._write_lock:
            self._stats.clear()
            self._row_estimate = 0

    def describe(self) -> list[dict[str, object]]:
        """Statistics inventory for the monitoring panel."""
        return [
            {
                "name": s.name,
                "rows_seen": s.rows_seen,
                "null_fraction": round(s.null_fraction, 4),
                "min": s.min_value,
                "max": s.max_value,
                "distinct_est": round(s.distinct_estimate(), 1),
            }
            for s in self._stats.values()
        ]
