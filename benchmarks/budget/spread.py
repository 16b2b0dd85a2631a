"""The benchmark driver's steadiness check, run locally.

    python3 benchmarks/budget/spread.py [--workload W ...] [--runs 10]
        [--seed 1] [--seconds S]

Runs every workload of ``BENCHMARK.json`` (or the ones named) ``--runs``
times, untraced, each time on another seed, and prints per workload x
end-to-end metric the median and the spread of its values — the
distance between their first and third quartile as a share of the
median — beside the metric's bound.  The driver refuses the benchmark
when a spread (``setup_s`` excepted) exceeds its bound; the aim is a
third of the bound.  Exits non-zero when a spread exceeds its bound or
a run was not correct.  All values land in ``out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py")]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def main(argv: list[str] | None = None) -> int:
    spec_path = HERE.parents[1] / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    bad = 0
    for workload in args.workload or names:
        per_metric = values[workload] = {name: [] for name in bounds}
        for seed in range(args.seed, args.seed + args.runs):
            result = run(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT")
                bad += 1
            for name in bounds:
                per_metric[name].append(result["metrics"][name]["value"])
        print(
            f"{workload:18}{'metric':24}{'median':>12}"
            f"{'spread':>9}{'bound':>8}"
        )
        for name, bound in bounds.items():
            share = spread(per_metric[name])
            verdict = ""
            if share > bound and name != "setup_s":
                verdict = "  EXCESS"
                bad += 1
            elif share > bound / 3:
                verdict = "  over a third"
            median = statistics.median(per_metric[name])
            print(
                f"{'':18}{name:24}{median:12.3f}"
                f"{share:9.1%}{bound:8.0%}{verdict}"
            )
    out = HERE / "out" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
