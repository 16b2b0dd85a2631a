"""The engine-wide metrics registry: counters and histograms.

Per-query :class:`repro.core.metrics.QueryMetrics` answers *"where did
this query's time go?"* (the paper's Figure 3).  The registry answers
the fleet questions the ad-hoc panels could not — "p99 TTFB under 8
clients?", "which table's lock is hot?" — by accumulating observations
across every query, session and connection of one engine.

Design constraints, in order:

* **Cheap hot path.**  Instruments are looked up once and then held;
  ``Counter.inc`` / ``Histogram.observe`` take one small per-instrument
  lock.  Instrument *creation* is lock-striped so two threads minting
  different instruments never serialize on one registry mutex.
* **No double bookkeeping.**  Each count lives in one place.
  Components that already keep counters (scheduler, governor, locks,
  kernel cache, MV catalog, wire server) are not mirrored write-by-
  write; they register a snapshot-time **collector** instead, and
  :meth:`MetricsRegistry.snapshot` folds their live stats in.  A count
  kept only here (MV hits, columnstore promotions) is read back from
  its instrument by the component that reports it.  The monitoring
  panels render from that snapshot.

Histograms are **log-bucketed**: bucket upper bounds are powers of two
of a second from ~1 µs to 64 s (plus an overflow bucket), so one fixed
28-slot array spans cache-hit latencies and stalled-consumer timeouts
alike, and percentiles come from linear interpolation inside the hit
bucket (clamped to the observed min/max).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable


def _label_key(labels: dict[str, str] | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


#: Bucket upper bounds: 2**-20 s (~0.95 µs) ... 2**6 s (64 s).
_BOUNDS: list[float] = [2.0**e for e in range(-20, 7)]


class Histogram:
    """A log-bucketed latency distribution (seconds)."""

    __slots__ = (
        "name",
        "labels",
        "_lock",
        "_counts",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        # One slot per bound plus the +Inf overflow bucket.
        self._counts = [0] * (len(_BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        idx = bisect_left(_BOUNDS, value) if value > 0.0 else 0
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, p: float) -> float | None:
        """The value at quantile ``p`` (0..1), ``None`` when empty.

        Linear interpolation by rank inside the hit bucket, clamped to
        the observed min/max so tiny samples don't report a bucket
        bound nobody measured.
        """
        with self._lock:
            total = self.count
            if total == 0:
                return None
            rank = p * total
            cumulative = 0
            for idx, n in enumerate(self._counts):
                if n == 0:
                    continue
                if cumulative + n >= rank:
                    lo = _BOUNDS[idx - 1] if idx > 0 else 0.0
                    hi = _BOUNDS[idx] if idx < len(_BOUNDS) else self.max
                    if hi is None:  # pragma: no cover - defensive
                        hi = lo
                    fraction = (rank - cumulative) / n
                    value = lo + (hi - lo) * fraction
                    if self.min is not None:
                        value = max(value, self.min)
                    if self.max is not None:
                        value = min(value, self.max)
                    return value
                cumulative += n
            return self.max  # pragma: no cover - defensive

    def snapshot(self) -> dict[str, object]:
        """A JSON-safe summary (used by STATS and the exporters)."""
        with self._lock:
            count, total = self.count, self.sum
        if count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs (Prometheus ``le``
        semantics); the final bound is ``inf``."""
        with self._lock:
            counts = list(self._counts)
        out = []
        cumulative = 0
        for bound, n in zip(_BOUNDS + [float("inf")], counts):
            cumulative += n
            out.append((bound, cumulative))
        return out


_STRIPES = 16


class MetricsRegistry:
    """One engine's instruments plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._stripes = [threading.Lock() for _ in range(_STRIPES)]
        self._counters: dict[tuple, Counter] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._collector_lock = threading.Lock()
        self._collectors: dict[str, Callable[[], object]] = {}

    # ------------------------------------------------------------------
    # Instrument factories (create-once, then cached).
    # ------------------------------------------------------------------

    def _instrument(self, store: dict, cls, name: str, labels) -> object:
        key = (name, _label_key(labels))
        inst = store.get(key)
        if inst is None:
            with self._stripes[hash(key) % _STRIPES]:
                inst = store.setdefault(key, cls(name, key[1]))
        return inst

    def counter(self, name: str, labels: dict[str, str] | None = None):
        return self._instrument(self._counters, Counter, name, labels)

    def histogram(self, name: str, labels: dict[str, str] | None = None):
        return self._instrument(self._histograms, Histogram, name, labels)

    # ------------------------------------------------------------------
    # Collectors: live component stats folded in at snapshot time.
    # ------------------------------------------------------------------

    def register_collector(
        self, name: str, fn: Callable[[], object]
    ) -> None:
        """Register (or replace) a named snapshot-time stats source."""
        with self._collector_lock:
            self._collectors[name] = fn

    # ------------------------------------------------------------------
    # Exposition.
    # ------------------------------------------------------------------

    @staticmethod
    def _flat_name(key: tuple) -> str:
        name, labels = key
        if not labels:
            return name
        inner = ",".join(f'{k}="{v}"' for k, v in labels)
        return f"{name}{{{inner}}}"

    def snapshot(self) -> dict[str, object]:
        """Everything, as one JSON-serializable dict."""
        with self._collector_lock:
            collectors = dict(self._collectors)
        collected = {}
        for name, fn in collectors.items():
            try:
                collected[name] = fn()
            except Exception as exc:  # pragma: no cover - defensive
                collected[name] = {"error": repr(exc)}
        return {
            "counters": {
                self._flat_name(k): c.value
                for k, c in sorted(self._counters.items())
            },
            "histograms": {
                self._flat_name(k): h.snapshot()
                for k, h in sorted(self._histograms.items())
            },
            "collectors": collected,
        }

    def prometheus_text(self, prefix: str = "repro") -> str:
        """The registry in the Prometheus text exposition format.

        Direct instruments become ``<prefix>_<name>`` families
        (histograms with full ``_bucket``/``_sum``/``_count`` series);
        numeric leaves of collector dicts are flattened to gauges like
        ``repro_scheduler_active``.
        """
        lines: list[str] = []
        for (name, labels), counter in sorted(self._counters.items()):
            lines.append(f"# TYPE {prefix}_{name} counter")
            lines.append(
                f"{prefix}_{name}{_prom_labels(labels)} {counter.value}"
            )
        for (name, labels), hist in sorted(self._histograms.items()):
            lines.append(f"# TYPE {prefix}_{name} histogram")
            for bound, cumulative in hist.buckets():
                le = "+Inf" if bound == float("inf") else repr(bound)
                lines.append(
                    f"{prefix}_{name}_bucket"
                    f"{_prom_labels(labels + (('le', le),))} {cumulative}"
                )
            lines.append(
                f"{prefix}_{name}_sum{_prom_labels(labels)} {hist.sum}"
            )
            lines.append(
                f"{prefix}_{name}_count{_prom_labels(labels)} {hist.count}"
            )
        snapshot = self.snapshot()
        for collector, payload in sorted(snapshot["collectors"].items()):
            for path, value in _numeric_leaves(payload):
                metric = "_".join([prefix, collector, *path])
                metric = metric.replace("-", "_").replace(".", "_")
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {value}")
        return "\n".join(lines) + "\n"


def _prom_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{{{inner}}}"


def _numeric_leaves(payload: object, path: tuple = ()):
    """Yield ``(key_path, value)`` for every numeric scalar in a nested
    collector dict; lists and strings are skipped (they are panel data,
    not scrapeable series)."""
    if isinstance(payload, bool) or payload is None:
        return
    if isinstance(payload, (int, float)):
        yield path, payload
        return
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _numeric_leaves(value, path + (str(key),))
