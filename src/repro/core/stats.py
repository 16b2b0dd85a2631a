"""On-the-fly statistics (paper §3.3).

"We extend the PostgresRaw scan operator to create statistics on-the-fly
... only on requested attributes ... statistics are generated in an
adaptive way; as queries request more attributes of a raw file,
statistics are incrementally augmented to represent bigger subsets of
the data."

The scan feeds every batch of converted values for *requested* attributes
into :class:`StatisticsStore`, which maintains per-attribute reservoir
samples, min/max, null fractions, distinct-value estimates and equi-depth
histograms.  The optimizer consumes them through the same selectivity API
a conventional DBMS would use after ANALYZE.

**A typed reservoir.**  The sample is a numpy array of the column's own
dtype (for TEXT, an object array of the decoded strings), kept by
Vitter's algorithm R with numpy draws: a batch first fills the free
slots, then draws one ``rng.random`` and one ``rng.integers`` per
remaining value; the accepted values land in one fancy-index
assignment, where the last arrival per slot wins, just as a
value-at-a-time loop would leave it.  A TEXT batch arrives as
dictionary codes — the draws are the same, and only the values kept
are decoded — and its min / max are the strings of its extreme codes.
The estimators and the histogram read the array with numpy.  Arrival
numbers count non-NULL values only: a batch's values arrive after the
non-NULL values of the batches before it, however many NULLs either
held.

One deliberate refinement over a literal reading of the paper: only
*full-column* reads feed the store.  Attributes materialized solely for
qualifying rows (selective tuple formation) are skipped, because a
filtered subset would bias the sample — the statistics arrive one query
later, when the attribute is first read unfiltered.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..batch import ColumnVector
from ..datatypes import DataType

_DEFAULT_SELECTIVITY_EQ = 0.005
_DEFAULT_SELECTIVITY_RANGE = 0.33


@dataclass
class AttributeStatistics:
    """Incrementally maintained statistics for one attribute."""

    name: str
    dtype: DataType
    sample_size: int
    histogram_buckets: int
    rows_seen: int = 0
    null_count: int = 0
    min_value: object = None
    max_value: object = None
    #: The reservoir: up to ``sample_size`` non-NULL values, typed.
    sample: np.ndarray = field(init=False, repr=False)
    _histogram: np.ndarray | None = field(default=None, repr=False)
    _histogram_dirty: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        # TEXT samples hold the decoded strings.
        text = self.dtype is DataType.TEXT
        dtype = object if text else self.dtype.numpy_dtype
        self.sample = np.empty(0, dtype=dtype)

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def observe(self, vector: ColumnVector, rng: np.random.Generator) -> None:
        """Fold one batch of binary values into the running statistics."""
        n = len(vector)
        if n == 0:
            return
        nulls = vector.null_mask
        null_in_batch = int(np.count_nonzero(nulls))
        seen = self.rows_seen - self.null_count  # non-NULL values so far
        self.rows_seen += n
        self.null_count += null_in_batch

        values = vector.values[~nulls] if null_in_batch else vector.values
        if len(values):
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
            self._reservoir_update(values, seen, rng, vector.dictionary)
        self._histogram_dirty = True

    def _reservoir_update(
        self,
        values: np.ndarray,
        seen: int,
        rng: np.random.Generator,
        dictionary: np.ndarray | None = None,
    ) -> None:
        """Vitter's algorithm R over one batch of non-NULL ``values``,
        ``seen`` non-NULL values having arrived before it.  TEXT
        ``values`` are codes into ``dictionary``: the draws are the
        same, and only the values kept are decoded."""
        k = self.sample_size
        take = min(k - len(self.sample), len(values))
        if take:
            kept = values[:take]
            if dictionary is not None:
                kept = dictionary[kept]
            self.sample = np.concatenate([self.sample, kept])
            values = values[take:]
            seen += take
        if not len(values):
            return
        arrival = seen + np.arange(1, len(values) + 1)
        accept = rng.random(len(values)) < (k / arrival)
        slots = rng.integers(0, k, size=len(values))
        # One assignment; of two arrivals for one slot the later wins.
        slots, values = slots[accept][::-1], values[accept][::-1]
        slots, last = np.unique(slots, return_index=True)
        kept = values[last]
        self.sample[slots] = kept if dictionary is None else dictionary[kept]

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

    def histogram(self) -> np.ndarray | None:
        """Equi-depth bucket boundaries over the sample (numeric only)."""
        if self.dtype is DataType.TEXT or not len(self.sample):
            return None
        if self._histogram_dirty:
            data = np.sort(self.sample.astype(np.float64))
            quantiles = np.linspace(0.0, 1.0, self.histogram_buckets + 1)
            self._histogram = np.quantile(data, quantiles)
            self._histogram_dirty = False
        return self._histogram

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
        histogram_buckets: int = 32,
        seed: int = 0x5EED,
    ) -> None:
        self.sample_size = sample_size
        self.histogram_buckets = histogram_buckets
        self._rng = np.random.default_rng(seed)
        self._stats: dict[str, AttributeStatistics] = {}
        self._row_estimate = 0
        # Serializes reservoir/extrema updates: concurrent queries on the
        # service's shared read path feed the same store.  (Selectivity
        # reads stay lock-free — a momentarily stale estimate is fine.)
        self._write_lock = threading.Lock()

    def observe(self, name: str, vector: ColumnVector) -> None:
        with self._write_lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = AttributeStatistics(
                    name=name,
                    dtype=vector.dtype,
                    sample_size=self.sample_size,
                    histogram_buckets=self.histogram_buckets,
                )
                self._stats[name] = stats
            stats.observe(vector, self._rng)

    def set_row_estimate(self, n_rows: int) -> None:
        with self._write_lock:
            self._row_estimate = max(self._row_estimate, n_rows)

    @property
    def row_estimate(self) -> int:
        return self._row_estimate

    def get(self, name: str) -> AttributeStatistics | None:
        return self._stats.get(name)

    def has(self, name: str) -> bool:
        return name in self._stats

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
