"""The four workloads of the budget benchmark.

Each workload is a closed loop with **one** client.  A
:class:`Workload` knows how to set itself up (generate data from the
seed, register it, boot what serves it, warm it until the adaptive
state stops changing), how to run one op against its target, and how
to read the adaptive state it left behind.  ``run.py`` owns timing,
tracing and reporting.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import repro
from repro import PostgresRaw, PostgresRawConfig, PostgresRawService

import datagen
import speed
from oracle import (
    CLASSES,
    MIN_CLASS_SAMPLES,
    Op,
    expected,
    make_ops,
    rows_match,
)
from spans import Tracer

#: The serving configuration shared by warm_mix, append_jsonl and
#: wire_mix.  The budget is never binding (see README: a binding
#: budget makes eviction order depend on measured seconds).
SERVING = {"memory_budget": 256 << 20, "mv_auto": True, "vp_enabled": True}

#: Warm-up ends when the adaptive state has not changed for this many
#: consecutive ops; hitting the cap is an error, not a shrug.
QUIET_OPS = 20
WARMUP_CAP = 400

#: Rows of the first ``fetchmany`` of a streamed projection: small, so
#: it returns as soon as the first batch is in.
FIRST_FETCH = 64


@dataclass
class Sample:
    """One timed op, with the machine-speed readings taken before it."""

    kind: str
    t0: float
    t1: float
    ttfb: float | None
    ok: bool
    error: str | None = None
    #: CPU seconds this (client) process burned inside the op; the rest
    #: of the op it waited — on a server process, for ``wire_mix``.
    cpu: float = 0.0
    #: ``speed.slowdown`` readings on the client's and the server's core.
    ref_client: float = 1.0
    ref_server: float = 1.0
    #: Wall seconds at reference speed (``report.normalize`` fills it).
    seconds: float = 0.0

    @property
    def raw_seconds(self) -> float:
        return self.t1 - self.t0


def run_statements(target, op: Op, t0: float):
    """Run ``op`` against an engine, session or wire connection.

    Returns ``(rows per statement, seconds to first batch or None)``.
    A projection is consumed through a streaming cursor; everything
    else materializes.
    """
    if op.kind != "projection":
        return [target.query(sql).rows for sql in op.statements()], None
    open_cursor = getattr(target, "cursor", None) or target.query_stream
    cursor = open_cursor(op.statements()[0])
    try:
        rows = cursor.fetchmany(FIRST_FETCH)
        ttfb = perf_counter() - t0
        while True:
            more = cursor.fetchmany(4096)
            if not more:
                break
            rows.extend(more)
    finally:
        cursor.close()
    return [rows], ttfb


def adaptive_stats(service: PostgresRawService) -> dict[str, float]:
    """The adaptive state of table ``t``, from public attributes."""
    state = service.table_state("t")
    pm, cache = state.positional_map, state.cache
    counter = service.telemetry.registry.counter
    governor = service.governor
    mv = service.mv.catalog if service.mv is not None else None
    return {
        "mv_builds": mv.builds if mv else 0,
        "mv_invalidations": mv.invalidations if mv else 0,
        "vp_promotions": counter("vp_promotions_total").value,
        "pm_chunks": pm.chunk_count,
        "cache_entries": cache.entry_count,
        "pm_bytes": pm.used_bytes,
        "cache_bytes": cache.used_bytes,
        "state_bytes": (
            governor.used_bytes
            if governor is not None
            else pm.used_bytes + cache.used_bytes
        ),
        "governor_evictions": governor.evictions if governor else 0,
        "peak_rss_kib": peak_rss_kib(),
    }


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _quiet_key(stats: dict) -> tuple:
    return (
        stats["mv_builds"],
        stats["vp_promotions"],
        stats["pm_chunks"],
        stats["cache_entries"],
    )


class Workload:
    """Base: one table ``t`` served to one closed-loop client."""

    name = ""
    why = ""
    fmt = "csv"
    rows = datagen.FACTS_ROWS
    #: Class mix per 20 ops (point, filter_agg, projection, dashboard).
    shares = (6, 5, 5, 4)
    #: Does the timed phase change the data (and so the adaptive state)
    #: by design?  The steady-state guards only apply when it does not.
    mutates_data = False
    #: Ops per second of ``--seconds``: the timed phase is a *fixed* op
    #: list sized to last about ``--seconds`` on the 2-core reference
    #: box, so both sides of a comparison do identical work.
    ops_per_budget_second: float

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.table: datagen.Table | None = None
        self.path: Path | None = None
        #: The last set-up: wall seconds, and its warm-up's ops.
        self.setup_s = 0.0
        self.warmup_s = 0.0
        self.warmup_samples: list[Sample] = []
        self.tracer = Tracer()
        self._opened = False

    # -- lifecycle -----------------------------------------------------

    def timed_ops(self, seconds: float) -> list[Op]:
        floor = MIN_CLASS_SAMPLES * len(CLASSES)
        count = max(int(self.ops_per_budget_second * seconds), floor)
        return make_ops(self.seed, count, self.rows, self.shares)

    def total_rows(self, n_ops: int) -> int:
        """Rows to generate: those on disk at first, plus appends."""
        return self.rows

    def setup(self, n_ops: int) -> None:
        """Data generation + registration + boot + warm-up."""
        started = perf_counter()
        self.teardown()
        self.warmup_samples = []
        self.workdir.mkdir(parents=True)
        self.table = datagen.generate(
            self.total_rows(n_ops), self.seed, self.rows
        )
        self.path = datagen.write_table(
            self.table, self.workdir / f"t.{self.fmt}", self.fmt
        )
        self.open()
        self._opened = True
        t0 = perf_counter()
        self.warm_up()
        self.warmup_s = perf_counter() - t0
        self.setup_s = perf_counter() - started

    def teardown(self) -> None:
        """Close whatever the last set-up opened; drop its files."""
        if self._opened:
            self._opened = False
            self.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def open(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def target(self):
        """What ``run_statements`` talks to."""
        raise NotImplementedError

    def stats(self) -> dict[str, float]:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed work ahead of each op of a phase (the external
        writer); warm-up runs without it."""

    def run_op(self, op: Op, t0: float):
        return run_statements(self.target(), op, t0)

    # -- timing --------------------------------------------------------

    def tick(self) -> tuple[float, float]:
        """Machine-speed readings: (client core, server core)."""
        ref = speed.slowdown()
        return ref, ref

    def timed_op(self, op: Op, run=None) -> Sample:
        """One op: speed reading, the timed interval, then the oracle
        check — outside the interval."""
        ref_client, ref_server = self.tick()
        error = None
        results = ttfb = None
        run = run or self.run_op
        c0 = process_time()
        t0 = perf_counter()
        try:
            results, ttfb = run(op, t0)
        except Exception:  # a failed op is a result, not a crash
            error = traceback.format_exc(limit=4)
        t1 = perf_counter()
        cpu = process_time() - c0
        ok = error is None and all(
            rows_match(got, want)
            for got, want in zip(results, expected(op, self.table))
        )
        if error is None and not ok:
            error = f"answer differs from the oracle: {op}"
        return Sample(
            op.kind, t0, t1, ttfb, ok, error, cpu, ref_client, ref_server
        )

    def warm_up(self) -> None:
        """Run the warm-up list until the adaptive state is quiet."""
        ops = make_ops(self.seed + 1, WARMUP_CAP, self.rows, self.shares)
        quiet = 0
        last = _quiet_key(self.stats())
        for op in ops:
            self._warm(op)
            key = _quiet_key(self.stats())
            quiet = quiet + 1 if key == last else 0
            last = key
            if quiet >= QUIET_OPS:
                return
        raise RuntimeError(
            f"{self.name}: adaptive state still changing after "
            f"{WARMUP_CAP} warm-up ops (last {last})"
        )

    def _warm(self, op: Op, run=None) -> None:
        sample = self.timed_op(op, run)
        if not sample.ok:
            raise RuntimeError(f"{self.name} warm-up: {sample.error}")
        self.warmup_samples.append(sample)

    def run_phase(
        self, ops: list[Op], cap_seconds: float = float("inf")
    ) -> list[Sample]:
        """Run ``ops`` in order, one in flight.

        Past ``cap_seconds`` the phase stops as soon as every class has
        36 samples: a slow box shortens the list, never the sample
        floor.
        """
        samples: list[Sample] = []
        counts = dict.fromkeys(CLASSES, 0)
        started = perf_counter()
        for op in ops:
            self.before_op()
            samples.append(self.timed_op(op))
            counts[op.kind] += 1
            late = samples[-1].t1 - started > cap_seconds
            if late and min(counts.values()) >= MIN_CLASS_SAMPLES:
                break
        return samples

    # -- tracing -------------------------------------------------------

    def trace_on(self) -> None:
        """Install the span wrappers (spans accumulate across calls)."""
        self.tracer.install()

    def trace_pause(self) -> None:
        self.tracer.uninstall()

    def trace_dumps(self) -> list[dict]:
        """One span dump per traced process (tracing paused)."""
        return [self.tracer.dump()]


class ColdFirstTouch(Workload):
    name = "cold_first_touch"
    why = (
        "every op on a fresh default engine: data-to-answer time, "
        "paid in rawio/formats, kernels, map/cache installation"
    )
    rows = datagen.COLD_ROWS
    shares = (5, 5, 5, 5)
    ops_per_budget_second = 19.2
    #: Warm-up is a fixed exploration on ONE engine: the paper's
    #: query-sequence curve, cold to converged.
    exploration_ops = 24

    def open(self) -> None:
        # Kept open after the exploration: its adaptive state is the
        # workload's ``adaptive_state_mb``.
        self.engine = self._engine()

    def close(self) -> None:
        self.engine.close()

    def _engine(self) -> PostgresRaw:
        engine = PostgresRaw()
        engine.register_csv("t", self.path, datagen.SCHEMA)
        return engine

    def target(self):
        return self.engine

    def warm_up(self) -> None:
        ops = make_ops(
            self.seed + 1, self.exploration_ops, self.rows, self.shares
        )
        for op in ops:
            self._warm(op, lambda op, t0: run_statements(self.engine, op, t0))

    def run_op(self, op: Op, t0: float):
        engine = self._engine()
        try:
            return run_statements(engine, op, t0)
        finally:
            engine.close()

    def stats(self) -> dict[str, float]:
        return adaptive_stats(self.engine.service)


class WarmMix(Workload):
    name = "warm_mix"
    why = (
        "one in-process session over converged adaptive state: no "
        "tokenizing left, so sql, service, tier lookups and executor "
        "are the whole cost"
    )
    ops_per_budget_second = 40.0

    def open(self) -> None:
        config = PostgresRawConfig(
            vp_dir=str(self.workdir / "vp"), **SERVING
        )
        self.service = PostgresRawService(config)
        self._register()
        self.session = self.service.session()

    def _register(self) -> None:
        self.service.register_csv("t", self.path, datagen.SCHEMA)

    def close(self) -> None:
        self.service.close()

    def target(self):
        return self.session

    def stats(self) -> dict[str, float]:
        return adaptive_stats(self.service)


class AppendJsonl(WarmMix):
    name = "append_jsonl"
    why = (
        "one op after every external 20-row JSONL append: reconcile, "
        "map/cache extend, MV and columnstore invalidate + rebuild"
    )
    fmt = "jsonl"
    rows = datagen.EVENTS_ROWS
    shares = (5, 5, 5, 5)
    mutates_data = True
    ops_per_budget_second = 14.4

    def total_rows(self, n_ops: int) -> int:
        return self.rows + n_ops * datagen.APPEND_ROWS

    def _register(self) -> None:
        self.service.register_jsonl("t", self.path, datagen.SCHEMA)

    def before_op(self) -> None:
        datagen.append_events(self.table, self.path)


class WireMix(Workload):
    name = "wire_mix"
    why = (
        "warm_mix's exact op list through a RawServer child process "
        "and one binary connection: the difference is server pump + "
        "encoding + socket + client decode"
    )
    ops_per_budget_second = WarmMix.ops_per_budget_second

    def open(self) -> None:
        child = Path(__file__).with_name("server_child.py")
        self.child = subprocess.Popen(
            [
                sys.executable,
                str(child),
                "--data",
                str(self.path),
                "--vp-dir",
                str(self.workdir / "vp"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = self._ask("port")["port"]
            self.conn = repro.connect(f"raw://127.0.0.1:{port}/")
        except BaseException:
            self.child.kill()
            self.child.wait()
            raise

    def _ask(self, command: str) -> dict:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child died (exit {self.child.poll()}) "
                f"before answering {command!r}"
            )
        return json.loads(line)

    def close(self) -> None:
        try:
            self.conn.close()
            self._ask("stop")
        finally:
            self.child.stdin.close()
            try:
                self.child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()

    def target(self):
        return self.conn

    def stats(self) -> dict[str, float]:
        return self._ask("stats")

    def tick(self) -> tuple[float, float]:
        return speed.slowdown(), self._ask("tick")["slowdown"]

    def trace_on(self) -> None:
        super().trace_on()
        self._ask("trace on")

    def trace_pause(self) -> None:
        super().trace_pause()
        self._ask("trace pause")

    def trace_dumps(self) -> list[dict]:
        spans_path = self.workdir / "server_spans.json"
        self._ask(f"trace dump {spans_path}")
        server = json.loads(spans_path.read_text(encoding="utf-8"))
        return super().trace_dumps() + [server]


WORKLOADS = {
    cls.name: cls for cls in (ColdFirstTouch, WarmMix, AppendJsonl, WireMix)
}
