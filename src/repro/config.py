"""Configuration knobs for PostgresRaw.

The demo paper exposes these as GUI controls: enabling/disabling the NoDB
components (positional map, cache, statistics), and the storage space
devoted to the auxiliary structures — here one engine-wide
``memory_budget`` every structure is admitted under.
:class:`PostgresRawConfig` is the programmatic equivalent; every knob
maps to a sentence in the paper (quoted in the attribute docs below).
Serving settings are not engine knobs: bind address, port and wire
limits are parameters of :class:`repro.server.RawServer`, shard count,
scheme and data directory of :class:`repro.sharding.ShardCluster`.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, fields, replace
from typing import Any

from .errors import BudgetError

#: Number of tuples processed per vectorized batch by the scan operators.
DEFAULT_BATCH_SIZE = 4096

#: Default engine-wide byte budget for all adaptive state: room for a
#: 64 MiB positional map plus a 256 MiB binary cache.
DEFAULT_MEMORY_BUDGET = 320 * 1024 * 1024

#: Reservoir sample size per attribute for on-the-fly statistics.
DEFAULT_STATS_SAMPLE_SIZE = 1024

#: Default number of buckets in equi-depth histograms.
DEFAULT_HISTOGRAM_BUCKETS = 32


@dataclass(frozen=True)
class PostgresRawConfig:
    """Tunable parameters of a :class:`repro.core.engine.PostgresRaw` engine.

    Instances are immutable; derive variants with :meth:`with_overrides`
    (used heavily by the ablation benchmarks, which flip one knob at a
    time).
    """

    #: "the user can enable or disable the NoDB components" — positional map.
    enable_positional_map: bool = True

    #: "the user can enable or disable the NoDB components" — binary cache.
    enable_cache: bool = True

    #: "We extend the PostgresRaw scan operator to create statistics
    #: on-the-fly."  Disable to measure the overhead / plan-quality impact.
    enable_statistics: bool = True

    #: "PostgresRaw reduces the tokenizing costs by opportunistically
    #: aborting tokenizing tuples as soon as the required attributes for a
    #: query have been found."  Disabling forces full-tuple tokenization.
    selective_tokenizing: bool = True

    #: "PostgresRaw needs only to transform to binary the values required
    #: for the remaining query plan."
    selective_parsing: bool = True

    #: "Tuples are not fully composed but only contain the attributes
    #: needed for a given query ... only created after the select
    #: operator."  Disabling materializes all projected attributes before
    #: the filter runs.
    selective_tuple_formation: bool = True

    #: "The distance that triggers indexing of a new attribute combination
    #: is a PostgresRaw parameter.  In our prototype, the default setting
    #: is that if all requested attributes for a query belong in different
    #: chunks, then the new combination is indexed."
    pm_combination_policy: bool = True

    #: Rows per vectorized batch in the scan pipeline.
    batch_size: int = DEFAULT_BATCH_SIZE

    #: "PostgresRaw is responsible for detecting the changes" — check the
    #: raw file's fingerprint before every query and reconcile.
    auto_detect_updates: bool = True

    #: "the amount of storage space which is devoted to internal
    #: indexes" and caches: one engine-wide byte budget for every
    #: table's positional-map chunks, cache entries, materialized
    #: aggregates and promoted columns.  The
    #: :class:`repro.service.MemoryGovernor` admits every byte; under
    #: pressure the lowest benefit-per-byte item goes first ("caching
    #: should give priority to attributes that are more expensive to
    #: parse and cheaper to maintain in memory"), recency breaking
    #: ties.  Line indexes are pinned and not charged.
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    #: Maximum queries executing simultaneously inside the concurrent
    #: service (:class:`repro.service.PostgresRawService`).  Further
    #: queries wait in a bounded admission queue.
    max_concurrent_queries: int = 8

    #: How many queries may *wait* for an execution slot before the
    #: service rejects new arrivals with
    #: :class:`repro.errors.AdmissionError`.
    admission_queue_depth: int = 64

    #: Capacity (in batches) of the bounded handoff queue between a
    #: streaming query's producing scan and its :class:`Cursor`.  The
    #: producer runs at most this many batches ahead of the consumer,
    #: so an open cursor holds O(stream_queue_batches x batch) memory
    #: regardless of result-set size.
    stream_queue_batches: int = 8

    #: How long (seconds) a streaming query's producer waits for a slow
    #: cursor consumer to make room in the handoff queue before
    #: abandoning the query: locks are released, whatever the scan had
    #: learned so far is installed, and the consumer receives a
    #: :class:`repro.errors.CursorTimeoutError` once the already-queued
    #: batches are drained.  ``None`` disables the timeout (an idle
    #: cursor then holds its shared table locks indefinitely).
    cursor_ttl_s: float | None = 60.0

    #: Master switch for :mod:`repro.telemetry` — the per-query span
    #: tracer, the engine-wide metrics registry's direct instruments
    #: (latency/TTFB/lock-wait histograms, counters) and the slow-query
    #: log.  Disabled, every instrument is a shared no-op and the
    #: tracer records nothing; snapshot-time *collectors* (scheduler,
    #: governor, lock and server stats) keep feeding the monitoring
    #: panels either way, since the components keep those counters for
    #: their own operation.
    telemetry_enabled: bool = True

    #: Queries whose ``total_seconds`` reaches this threshold are
    #: recorded in the slow-query log with their full Figure-3
    #: breakdown and span tree (``None`` disables the log).
    slow_query_s: float | None = None

    #: Master switch for the adaptive materialized-aggregate cache
    #: (:mod:`repro.mv`).  Enabled, the planner consults the MV catalog
    #: for aggregate queries (exact hit, wider-MV partial
    #: re-aggregation, raw fallback) and the workload analyzer mines
    #: query signatures; disabled, planner and service behave exactly
    #: as before the subsystem existed.
    mv_enabled: bool = True

    #: Auto-materialization: when a query signature has been planned
    #: ``mv_min_repeats`` times, its next raw execution captures the
    #: finished aggregate as a governed MV.  Off (the default), the
    #: analyzer still mines and *suggests*; materialization happens only
    #: through explicit ``service.build_mv(sql)``.
    mv_auto: bool = False

    #: How many times a signature must repeat before ``mv_auto``
    #: captures it.
    mv_min_repeats: int = 3

    #: Vertical persistence: promote hot converted columns of raw
    #: tables into the on-disk columnstore as a durable governed cache
    #: tier.  Scans then serve those columns from binary storage
    #: without touching the raw file — the NoDB-to-loaded continuum.
    #: Off (the default) nothing is ever promoted and planner/scan
    #: behavior is exactly as before the tier existed.
    vp_enabled: bool = False

    #: How many scans must touch a (table, column) pair before vertical
    #: persistence promotes its converted vector into the columnstore.
    vp_min_accesses: int = 3

    #: Directory the vertical-persistence columnstore files live in.
    #: ``None`` (the default) uses a per-service temporary directory
    #: that is removed on ``close()``.
    vp_dir: str | None = None

    #: Half-life (seconds) for decaying the ``benefit_seconds`` signal
    #: of governed structures: a positional chunk or cache entry that
    #: has not been touched for one half-life counts at half its
    #: measured benefit-per-byte in the governor's eviction ordering, so
    #: stale-but-expensive structures age out in favor of recently
    #: useful ones.  ``None`` (the default) keeps benefit undecayed.
    benefit_half_life_s: float | None = None

    def __post_init__(self) -> None:
        if self.memory_budget is None or self.memory_budget < 0:
            raise BudgetError(
                f"memory_budget must be an int >= 0, "
                f"not {self.memory_budget!r}"
            )
        if self.batch_size <= 0:
            raise BudgetError("batch_size must be positive")
        if self.max_concurrent_queries < 1:
            raise BudgetError("max_concurrent_queries must be >= 1")
        if self.admission_queue_depth < 0:
            raise BudgetError("admission_queue_depth must be >= 0")
        if self.stream_queue_batches < 1:
            raise BudgetError("stream_queue_batches must be >= 1")
        if self.cursor_ttl_s is not None and self.cursor_ttl_s <= 0:
            raise BudgetError("cursor_ttl_s must be > 0 (or None)")
        if (
            self.benefit_half_life_s is not None
            and self.benefit_half_life_s <= 0
        ):
            raise BudgetError("benefit_half_life_s must be > 0 (or None)")
        if self.slow_query_s is not None and self.slow_query_s <= 0:
            raise BudgetError("slow_query_s must be > 0 (or None)")
        if self.mv_min_repeats < 1:
            raise BudgetError("mv_min_repeats must be >= 1")
        if self.vp_min_accesses < 1:
            raise BudgetError("vp_min_accesses must be >= 1")

    def with_overrides(self, **overrides: Any) -> "PostgresRawConfig":
        """Return a copy with the given fields replaced.

        >>> PostgresRawConfig().with_overrides(enable_cache=False).enable_cache
        False
        """
        return replace(self, **overrides)

    @classmethod
    def baseline(cls) -> "PostgresRawConfig":
        """The 'Baseline' variant from Figure 3: no positional map, no
        cache, no statistics — the naive external-files scan that re-does
        all work on every query (selective tokenizing/parsing stay on, as
        in the paper's baseline which shares the scan operator)."""
        return cls(
            enable_positional_map=False,
            enable_cache=False,
            enable_statistics=False,
        )

    @classmethod
    def pm_only(cls) -> "PostgresRawConfig":
        """Positional map enabled, cache disabled (ablation arm)."""
        return cls(enable_cache=False)

    @classmethod
    def cache_only(cls) -> "PostgresRawConfig":
        """Cache enabled, positional map disabled (ablation arm)."""
        return cls(enable_positional_map=False)


# ----------------------------------------------------------------------
# Knob documentation (single source of truth for the README table).
# ----------------------------------------------------------------------

#: Sentence-boundary abbreviations the first-sentence extractor must
#: not split after.
_ABBREVIATIONS = ("e.g", "i.e", "etc", "vs", "cf")


def _first_sentence(text: str) -> str:
    """The leading sentence of a knob doc (abbreviation-aware)."""
    i = 0
    while True:
        j = text.find(". ", i)
        if j == -1:
            return text
        if text[:j].endswith(_ABBREVIATIONS):
            i = j + 2
            continue
        return text[: j + 1]


def _format_default(value: object) -> str:
    """Render a knob default the way the docs talk about it."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, int):
        # Byte-sized knobs read better humanized; plain counts (batch
        # sizes, sample sizes) stay numeric.
        if value >= 1024 * 1024 and value % (1024 * 1024) == 0:
            return f"{value // (1024 * 1024)} MiB"
        return str(value)
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


def knob_docs() -> list[dict[str, str]]:
    """Every :class:`PostgresRawConfig` knob with its default and doc.

    Parsed from the ``#:`` attribute docstrings in this module's
    source, in declaration order — the generator behind the README's
    knob table (``tools/gen_knob_table.py``), so docs edited here are
    the only place they live.
    """
    source = inspect.getsource(PostgresRawConfig)
    docs: dict[str, str] = {}
    buffer: list[str] = []
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("#:"):
            buffer.append(stripped[2:].strip())
            continue
        if buffer:
            head = stripped.split(":", 1)[0].strip()
            if head.isidentifier():
                docs[head] = " ".join(buffer)
            buffer = []
    return [
        {
            "name": f.name,
            "default": _format_default(f.default),
            "doc": docs.get(f.name, ""),
        }
        for f in fields(PostgresRawConfig)
    ]


def _rst_to_markdown(text: str) -> str:
    """Docstrings use Sphinx markup; the README speaks markdown."""
    text = re.sub(r":\w+:`~?([^`]+)`", r"`\1`", text)
    return text.replace("``", "`")


def knob_table_markdown() -> str:
    """The README's knob table, generated from :func:`knob_docs`."""
    lines = [
        "| Knob | Default | What it controls |",
        "| --- | --- | --- |",
    ]
    for knob in knob_docs():
        meaning = _rst_to_markdown(_first_sentence(knob["doc"]))
        meaning = meaning.replace("|", "\\|")
        lines.append(
            f"| `{knob['name']}` | `{knob['default']}` | {meaning} |"
        )
    return "\n".join(lines)
