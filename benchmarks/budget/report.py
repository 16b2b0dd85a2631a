"""Metric arithmetic and text rendering for the budget benchmark.

Pure functions over samples (``workloads.Sample``) and attributions
(``spans.OpAttribution``); nothing here touches an engine.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from pathlib import Path

import numpy as np

import speed
from oracle import CLASSES, MIN_CLASS_SAMPLES

MIB = 1 << 20

#: A tail percentile is only reported with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.quantile(values, q))


def supported(n_samples: int, q: float) -> bool:
    """May ``q`` be reported from ``n_samples``?  The median needs the
    class floor; a tail needs ``SAMPLES_BEYOND`` samples beyond it."""
    if q <= 0.5:
        return n_samples >= MIN_CLASS_SAMPLES
    beyond = n_samples - math.ceil(round(q * n_samples, 9))
    return beyond >= SAMPLES_BEYOND


def normalize(samples) -> None:
    """Fill each sample's ``seconds``: wall time at reference speed.

    The CPU seconds the client process burned scale with its own
    core's ``speed.slowdown`` reading, the seconds it waited with the
    server's (the same core, and the same reading, for in-process
    workloads).
    """
    client = speed.smooth([s.ref_client for s in samples])
    server = speed.smooth([s.ref_server for s in samples])
    for sample, ref_c, ref_s in zip(samples, client, server):
        raw = sample.raw_seconds
        cpu = min(sample.cpu, raw)
        sample.seconds = cpu / ref_c + (raw - cpu) / ref_s


def setup_seconds(workload) -> tuple[float, float]:
    """``(setup_s, warmup_s)`` of the workload's last set-up at
    reference speed: warm-up ops scale one by one, the rest of the
    set-up (data generation, registration, boot) by the client core's
    median reading."""
    warm = workload.warmup_samples
    normalize(warm)
    ops_raw = sum(s.raw_seconds for s in warm)
    ops_norm = sum(s.seconds for s in warm)
    slowdown = statistics.median(s.ref_client for s in warm)
    return (
        (workload.setup_s - ops_raw) / slowdown + ops_norm,
        (workload.warmup_s - ops_raw) / slowdown + ops_norm,
    )


def speed_note(samples) -> str:
    """How fast the box ran during ``samples``, for the printout."""
    factors = [s.raw_seconds / s.seconds for s in samples]
    p5, p50, p95 = (percentile(factors, q) for q in (0.05, 0.5, 0.95))
    return (
        f"machine speed while timing: ops took {p50:.2f}x their "
        f"reference-speed time (p5 {p5:.2f}x, p95 {p95:.2f}x)"
    )


def round_rates(samples) -> list[float]:
    """Ops per second of three equal rounds of a closed loop: ops over
    the time the client spent inside them (oracle checks and the
    external writer run between ops and are not the system's time)."""
    n = len(samples) // 3
    rates = []
    for r in range(3):
        chunk = samples[r * n : (r + 1) * n if r < 2 else len(samples)]
        rates.append(len(chunk) / sum(s.seconds for s in chunk))
    return rates


def end_to_end(samples, setups, warmups, stats) -> dict[str, tuple]:
    """The end-to-end metrics of one untraced run: name -> (value, unit).

    ``samples`` are normalized (:func:`normalize`); every time is at
    reference speed."""
    metrics: dict[str, tuple] = {
        "setup_s": (statistics.median(setups), "s"),
        "warmup_s": (statistics.median(warmups), "s"),
        "ops_per_s": (statistics.median(round_rates(samples)), "1/s"),
    }
    for kind in CLASSES:
        times = [s.seconds for s in samples if s.kind == kind]
        _require(supported(len(times), 0.5), f"{kind}: {len(times)} samples")
        metrics[f"{kind}_p50_ms"] = (percentile(times, 0.5) * 1e3, "ms")
    ttfb = [
        s.ttfb * s.seconds / s.raw_seconds
        for s in samples
        if s.ttfb is not None
    ]
    _require(supported(len(ttfb), 0.5), f"ttfb: {len(ttfb)} samples")
    metrics["projection_ttfb_p50_ms"] = (percentile(ttfb, 0.5) * 1e3, "ms")
    every = [s.seconds for s in samples]
    _require(supported(len(every), 0.9), f"p90: {len(every)} samples")
    metrics["op_p90_ms"] = (percentile(every, 0.9) * 1e3, "ms")
    metrics["peak_rss_mb"] = (stats["peak_rss_kib"] / 1024.0, "mb")
    metrics["adaptive_state_mb"] = (stats["state_bytes"] / MIB, "mb")
    return metrics


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"too few samples to report a metric ({what})")


# ----------------------------------------------------------------------
# Per-layer metrics from the traced pass.
# ----------------------------------------------------------------------

#: Span name -> layer (repo module) for the layer x class table.
LAYER_OF = {
    "sql.parse": "sql",
    "sql.plan": "sql",
    "service.admission": "service",
    "service.lock": "service",
    "service.channel_put": "service",
    "service.channel_get": "service",
    "service.detect_change": "service",
    "service.retire": "service",
    "raw_scan.scan": "core.raw_scan",
    "formats.line_index": "formats",
    "formats.tokenize": "formats",
    "formats.jsonl_tokenize": "formats",
    "formats.extract": "formats",
    "kernels.tokenize": "kernels",
    "kernels.convert": "kernels",
    "kernels.build": "kernels",
    "positional_map.install": "core.positional_map",
    "positional_map.extend": "core.positional_map",
    "cache.put": "core.cache",
    "cache.extend": "core.cache",
    "vertical.read": "storage.vertical",
    "vertical.promote": "storage.vertical",
    "vertical.invalidate": "storage.vertical",
    "mv.serve": "mv",
    "mv.scan": "mv",
    "mv.capture": "mv",
    "mv.install": "mv",
    "mv.invalidate": "mv",
    "governor.grant": "service.governor",
    "executor.filter": "executor",
    "executor.project": "executor",
    "executor.hash_aggregate": "executor",
    "executor.other": "executor",
    "executor.fetch": "executor",
    "server.encode": "server",
    # The client blocked on the socket with no server span running:
    # asyncio pump, executor hops, socket, scheduling.
    "client.read_wait": "server",
    "client.decode": "client",
}

#: What ``service.reconcile_ms`` adds up: change detection and the
#: extend / invalidate calls an append triggers.
RECONCILE_SPANS = (
    "service.detect_change",
    "mv.invalidate",
    "vertical.invalidate",
    "positional_map.extend",
    "cache.extend",
)


class Aggregate:
    """Means per op over a list of ``OpAttribution``."""

    def __init__(self, attributions) -> None:
        self.attributions = attributions
        self.n = max(len(attributions), 1)

    def self_s(self, *names: str) -> float:
        return self._mean("self_seconds", names)

    def raw_s(self, *names: str) -> float:
        return self._mean("raw_seconds", names)

    def calls(self, *names: str) -> float:
        return self._mean("calls", names)

    def counter(self, *names: str) -> float:
        return self._mean("counters", names)

    def ratio(self, hit: tuple[str, ...], miss: tuple[str, ...]) -> float:
        hits = self.counter(*hit)
        total = hits + self.counter(*miss)
        return hits / total if total else 0.0

    def unattributed_s(self) -> float:
        return sum(a.unattributed for a in self.attributions) / self.n

    def wall_s(self) -> float:
        return sum(a.wall for a in self.attributions) / self.n

    def _mean(self, field: str, names: tuple[str, ...]) -> float:
        total = 0.0
        for attribution in self.attributions:
            values = getattr(attribution, field)
            for name in names:
                total += values.get(name, 0)
        return total / self.n


def per_layer(agg: Aggregate, stats: dict, extra: dict) -> dict[str, tuple]:
    """Every per-layer metric of one traced run: name -> (value, unit).

    ``*_us`` / ``*_ms`` are mean seconds per op of the layer's
    attributed self time (see ``spans.attribute``), so they add up —
    with ``service.unattributed_ms`` — to the mean op wall time.
    Counts are means per op unless they describe the end state.
    """

    def us(*spans: str) -> tuple:
        return agg.self_s(*spans) * 1e6, "us"

    def ms(*spans: str) -> tuple:
        return agg.self_s(*spans) * 1e3, "ms"

    def count(value: float) -> tuple:
        return float(value), "count"

    def ratio(hit: tuple[str, ...], miss: tuple[str, ...]) -> tuple:
        return agg.ratio(hit, miss), "ratio"

    metrics = {
        "sql.parse_us": us("sql.parse"),
        "sql.plan_us": us("sql.plan"),
        "service.admission_wait_us": us("service.admission"),
        "service.lock_wait_us": us("service.lock"),
        "service.channel_wait_us": us(
            "service.channel_put", "service.channel_get"
        ),
        "service.channel_batches": count(agg.calls("service.channel_put")),
        "service.reconcile_ms": ms(*RECONCILE_SPANS),
        "service.unattributed_ms": (agg.unattributed_s() * 1e3, "ms"),
        "raw_scan.self_ms": ms("raw_scan.scan"),
        "raw_scan.rows_scanned": count(agg.counter("rows_scanned")),
        "raw_scan.fields_tokenized": count(agg.counter("fields_tokenized")),
        "raw_scan.fields_converted": count(agg.counter("fields_converted")),
        "raw_scan.cache_hit_ratio": ratio(("cache_hits",), ("cache_misses",)),
        "raw_scan.pm_chunk_hit_ratio": ratio(
            ("pm_chunk_hits",), ("pm_chunk_misses",)
        ),
        "raw_scan.bytes_read": (agg.counter("bytes_read"), "bytes"),
        "formats.line_index_ms": ms("formats.line_index"),
        "formats.tokenize_ms": ms("formats.tokenize"),
        "formats.extract_ms": ms("formats.extract"),
        "formats.jsonl_tokenize_ms": ms("formats.jsonl_tokenize"),
        "kernels.tokenize_ms": ms("kernels.tokenize"),
        "kernels.convert_ms": ms("kernels.convert"),
        "kernels.build_ms": ms("kernels.build"),
        "kernels.cache_hit_ratio": ratio(("kernel_hit",), ("kernel_miss",)),
        "positional_map.install_ms": ms("positional_map.install"),
        "positional_map.extend_ms": ms("positional_map.extend"),
        "positional_map.mb": (stats["pm_bytes"] / MIB, "mb"),
        "cache.put_ms": ms("cache.put"),
        "cache.extend_ms": ms("cache.extend"),
        "cache.mb": (stats["cache_bytes"] / MIB, "mb"),
        "vertical.read_ms": ms("vertical.read"),
        "vertical.promote_ms": ms("vertical.promote"),
        "vertical.promotions": count(agg.counter("promotions")),
        "vertical.invalidations": count(agg.counter("vp_invalidations")),
        "mv.serve_us": us("mv.serve", "mv.scan"),
        "mv.exact_hit_ratio": ratio(("mv_exact",), ("mv_partial", "mv_miss")),
        "mv.partial_hit_ratio": ratio(
            ("mv_partial",), ("mv_exact", "mv_miss")
        ),
        "mv.install_ms": ms("mv.install", "mv.capture"),
        "mv.builds": count(agg.counter("mv_builds")),
        "mv.invalidations": count(agg.counter("mv_invalidations")),
        "governor.grant_us": us("governor.grant"),
        "governor.evictions": count(stats["governor_evictions"]),
        "governor.used_mb": (stats["state_bytes"] / MIB, "mb"),
        "executor.filter_ms": ms("executor.filter"),
        "executor.project_ms": ms("executor.project"),
        "executor.hash_aggregate_ms": ms("executor.hash_aggregate"),
        "executor.fetch_ms": ms("executor.fetch"),
        "executor.rows_out": count(agg.counter("rows_out")),
        "server.encode_ms": ms("server.encode"),
        "server.frames": count(agg.counter("frames")),
        "server.bytes_out": (agg.counter("bytes_out"), "bytes"),
        "server.pump_wait_ms": ms("client.read_wait"),
        "client.decode_ms": ms("client.decode"),
        "client.read_wait_ms": (agg.raw_s("client.read_wait") * 1e3, "ms"),
        "client.bytes_in": (agg.counter("bytes_in"), "bytes"),
    }
    metrics.update(extra)
    return metrics


def layer_table(attributions, kinds: list[str]) -> str:
    """Mean attributed ms per op, span rows x op-class columns.

    Every column adds up to its last row, the mean op wall time: the
    ``(unattributed)`` row is the remainder no span covered.
    """
    columns = list(CLASSES) + ["all"]
    groups = {
        kind: Aggregate(
            [a for a, k in zip(attributions, kinds) if k == kind]
        )
        for kind in CLASSES
    }
    groups["all"] = Aggregate(attributions)
    names = sorted(
        {n for a in attributions for n in a.self_seconds},
        key=lambda n: (LAYER_OF.get(n, "?"), n),
    )
    width = max([len("(unattributed)")] + [len(n) for n in names]) + 2
    layer_w = max(len(layer) for layer in LAYER_OF.values()) + 2
    def row(layer: str, name: str, cells: list[str]) -> str:
        body = "".join(cell.rjust(12) for cell in cells)
        return layer.ljust(layer_w) + name.ljust(width) + body

    lines = [row("layer", "span", columns)]

    def ms(seconds: list[float]) -> list[str]:
        return [f"{s * 1e3:.3f}" for s in seconds]

    for name in names:
        values = [groups[c].self_s(name) for c in columns]
        lines.append(row(LAYER_OF.get(name, "?"), name, ms(values)))
    unattributed = [groups[c].unattributed_s() for c in columns]
    lines.append(row("service", "(unattributed)", ms(unattributed)))
    walls = [groups[c].wall_s() for c in columns]
    lines.append(row("", "op wall (ms)", ms(walls)))
    counts = [str(len(groups[c].attributions)) for c in columns]
    lines.append(row("", "ops", counts))
    return "\n".join(lines)


def partition_error(attributions) -> float:
    """Largest relative gap between an op's wall time and its parts."""
    worst = 0.0
    for a in attributions:
        parts = sum(a.self_seconds.values()) + a.unattributed
        worst = max(worst, abs(parts - a.wall) / a.wall)
    return worst


# ----------------------------------------------------------------------
# Environment and code-size counts.
# ----------------------------------------------------------------------


def environment() -> dict:
    """Where the numbers were taken (recorded with every result)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "load_avg_1m": os.getloadavg()[0],
    }


def code_counts(src: Path) -> dict[str, tuple]:
    """Source size: the ROADMAP audit tracks both as first-class."""
    import dataclasses

    from repro import PostgresRawConfig

    lines = 0
    for path in src.rglob("*.py"):
        with open(path, encoding="utf-8") as f:
            lines += sum(1 for _ in f)
    knobs = len(dataclasses.fields(PostgresRawConfig))
    return {
        "code.src_lines": (float(lines), "lines"),
        "code.config_knobs": (float(knobs), "count"),
    }
