"""Latency-budget benchmark: four steady workloads, per-layer attribution.

One workload, as the benchmark driver runs it (last stdout line is one
JSON object with ``correct`` / ``attempted`` / ``failed`` / ``metrics``)::

    python3 benchmarks/budget/run.py --workload warm_mix --seed 1 \
        --seconds 10 --trace 0      # end-to-end metrics, tracing off
    python3 benchmarks/budget/run.py --workload warm_mix --seed 1 \
        --seconds 10 --trace 1      # per-layer metrics, traced pass

The whole report — every workload untraced, then traced, each in a
fresh process — with the layer x op-class tables::

    python3 benchmarks/budget/run.py [--seed N] [--out F] [--repeat 2]

``--repeat 2`` runs the report twice and hands both results to
``compare.py``; the exit code is non-zero when identical code
disagreed with itself by more than a metric's bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro").is_dir():
    sys.exit(f"budget benchmark: no engine source at {SRC}/repro")
sys.path.insert(0, str(SRC))

import compare  # noqa: E402
import report  # noqa: E402
import speed  # noqa: E402
from spans import attribute  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-up runs this many times per untraced run; ``setup_s`` and
#: ``warmup_s`` are the medians, the last set-up is the one measured on.
SETUP_REPEATS = 3
#: The timed phase gives up on its op list past this multiple of
#: ``--seconds`` (once every class has its sample floor).
CAP_FACTOR = 2.0
DEFAULT_SECONDS = 10


def run_untraced(workload: Workload, seconds: float) -> dict:
    ops = workload.timed_ops(seconds)
    setups, warmups = [], []
    try:
        for _ in range(SETUP_REPEATS):
            workload.setup(len(ops))  # tears the previous one down
            setup_s, warmup_s = report.setup_seconds(workload)
            setups.append(setup_s)
            warmups.append(warmup_s)
        gc.collect()
        before = workload.stats()
        samples = workload.run_phase(ops, CAP_FACTOR * seconds)
        after = workload.stats()
    finally:
        workload.teardown()
    report.normalize(samples)
    metrics = report.end_to_end(samples, setups, warmups, after)
    rates = report.round_rates(samples)
    notes = []
    guards_ok = True
    if not workload.mutates_data:
        # Steady-state guards (append_jsonl is exempt: every append
        # invalidates and recaptures, and its file grows — by design
        # and identically run to run).  Ad-hoc filter_agg signatures
        # never repeat, so nothing may be materialized while the clock
        # runs; and round 1 against round 3 may not drift by more than
        # the metric's own bound.
        grew = after["mv_builds"] - before["mv_builds"]
        guards_ok = grew == 0
        if grew:
            notes.append(f"mv.builds grew by {grew} in the timed phase")
        drift = abs(rates[2] / rates[0] - 1.0)
        bound = compare.load_bounds()["ops_per_s"]
        if drift > bound:
            notes.append(
                f"unsteady: ops_per_s of round 1 and round 3 differ by "
                f"{drift:.0%} (bound {bound:.0%})"
            )
    if len(samples) < len(ops):
        notes.append(
            f"op list cut at {len(samples)}/{len(ops)} ops "
            f"({CAP_FACTOR:g}x --seconds reached)"
        )
    raw_s = sum(s.raw_seconds for s in samples)
    print(
        f"warm-up: {len(workload.warmup_samples)} ops; timed: "
        f"{len(samples)} ops in {raw_s:.1f}s wall "
        f"({len(samples) / raw_s:.1f} ops/s raw); rounds "
        + " / ".join(f"{r:.1f}" for r in rates)
        + " ops/s at reference speed"
    )
    print(report.speed_note(samples))
    for note in notes:
        print(f"NOTE: {note}")
    return _result(samples, metrics, guards_ok)


def run_traced(workload: Workload, seconds: float) -> dict:
    """Replay a third of the op list twice, 20 ops at a time: once
    plain, once with the span wrappers installed, alternating which
    goes first — the same ops on both sides, so the difference is the
    tracing overhead and not the op mix."""
    ops = workload.timed_ops(seconds)
    third = len(ops) // 3
    plain, traced = [], []
    try:
        workload.setup(len(ops))
        gc.collect()
        for i, start in enumerate(range(0, third, 20)):
            chunk = ops[start : min(start + 20, third)]
            for tracing in (False, True) if i % 2 == 0 else (True, False):
                if not tracing:
                    plain += workload.run_phase(chunk)
                    continue
                workload.trace_on()
                try:
                    traced += workload.run_phase(chunk)
                finally:
                    workload.trace_pause()
        dumps = workload.trace_dumps()
        stats = workload.stats()
        extra = sharding_probe(workload, ops[:40])
    finally:
        workload.teardown()

    report.normalize(plain)
    report.normalize(traced)
    windows = [(s.t0, s.t1) for s in traced]
    thread_spans = [t["spans"] for dump in dumps for t in dump["threads"]]
    attributions = attribute(windows, thread_spans)
    for sample, attribution in zip(traced, attributions):
        attribution.rescale(sample.seconds / sample.raw_seconds)
    plain_s = sum(s.seconds for s in plain)
    traced_s = sum(s.seconds for s in traced)
    extra["bench.trace_overhead_pct"] = (
        (traced_s / plain_s - 1.0) * 100.0,
        "pct",
    )
    extra.update(report.code_counts(SRC))
    metrics = report.per_layer(report.Aggregate(attributions), stats, extra)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{workload.name}.json"
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "workload": workload.name,
                "ops": [
                    {"kind": s.kind, "t0": s.t0, "t1": s.t1} for s in traced
                ],
                "processes": dumps,
            },
            f,
        )
    print(
        f"\nlayer x op-class self time, mean ms per op ({workload.name}; "
        f"{len(traced)} traced ops,\nspans in {trace_path.relative_to(ROOT)})"
    )
    print(report.layer_table(attributions, [s.kind for s in traced]))
    gap = report.partition_error(attributions)
    print(f"largest |parts - wall| / wall over ops: {gap:.2e}")
    return _result(plain + traced, metrics, gap < 0.01)


def sharding_probe(workload: Workload, ops) -> dict[str, tuple]:
    """Time the scatter planner and merge on the op list's SQL.

    No shard processes: each statement's shard SQL runs once on the
    workload's own target and that answer stands in for both shards'
    partials (a routed statement has one).
    """
    from repro import PartitionSpec
    from repro.sharding.scatter import ScatterPlanner, ShardResult

    planner = ScatterPlanner({"t": PartitionSpec("id", "hash", 2)}, 2)
    target = workload.target()
    plan_s = merge_s = 0.0
    statements = [sql for op in ops for sql in op.statements()]
    for sql in statements:
        t0 = perf_counter()
        plan = planner.plan(sql)
        plan_s += perf_counter() - t0
        answer = target.query(plan.shard_sql)
        partial = ShardResult(
            list(answer.column_names), list(answer.column_types), answer.rows
        )
        partials = [partial] if plan.is_routed else [partial, partial]
        t0 = perf_counter()
        for _ in plan.merge(partials).rows():
            pass
        merge_s += perf_counter() - t0
    n = len(statements)
    return {
        "sharding.scatter_plan_us": (plan_s / n * 1e6, "us"),
        "sharding.merge_ms": (merge_s / n * 1e3, "ms"),
    }


def _result(samples, metrics, guards_ok: bool) -> dict:
    """The driver's result line: exactly these four keys."""
    failed = [s for s in samples if not s.ok]
    for sample in failed[:3]:
        print(f"FAILED {sample.kind} op:\n{sample.error}", file=sys.stderr)
    return {
        "correct": not failed and guards_ok,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    # One core for the client and everything in its process; the
    # wire_mix server child takes the first (see speed.py).
    speed.pin(-1)
    workload = WORKLOADS[name](seed, OUT / "work" / f"{name}-{seed}")
    env = report.environment()
    print(
        f"== {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"(nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} load={env['load_avg_1m']:.2f}) =="
    )
    print(f"why: {workload.why}")
    runner = run_traced if trace else run_untraced
    result = runner(workload, seconds)
    width = max(len(n) for n in result["metrics"])
    for metric, entry in result["metrics"].items():
        print(f"{metric.ljust(width)}  {entry['value']:14.4f} {entry['unit']}")
    print(f"failed_share {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


def run_report(args) -> int:
    """Every workload, untraced then traced, one process each."""
    OUT.mkdir(exist_ok=True)
    paths = []
    for repeat in range(args.repeat):
        result = {
            "environment": report.environment(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {},
        }
        for name in WORKLOADS:
            plain = _child(name, args.seed, args.seconds, trace=0)
            traced = _child(name, args.seed, args.seconds, trace=1)
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            result["workloads"][name] = {
                "end_to_end": plain["metrics"],
                "per_layer": traced["metrics"],
                "attempted": attempted,
                "failed": failed,
                "failed_share": failed / attempted,
                "correct": plain["correct"] and traced["correct"],
            }
        default = OUT / f"BENCH_budget_{repeat + 1}.json"
        path = Path(args.out) if args.out and not repeat else default
        path.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nresult written to {path}")
        paths.append(path)
    if args.repeat < 2:
        return 0
    return compare.compare(paths[0], paths[1], compare.load_bounds())


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh process (its peak RSS is its own)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace={trace}) exited {done.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace",
        nargs="?",
        const="1",
        default="0",
        choices=("0", "1"),
        help="1: traced pass, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument("--out", help="report mode: result JSON path")
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="report mode: run N times; 2 also compares the results",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        return run_one(
            args.workload, args.seed, args.seconds, args.trace == "1"
        )
    return run_report(args)


if __name__ == "__main__":
    raise SystemExit(main())
