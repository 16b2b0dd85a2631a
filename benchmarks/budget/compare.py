"""Compare two budget-benchmark results metric by metric.

    python3 benchmarks/budget/compare.py A.json B.json

Prints, per workload x end-to-end metric, both values, the relative
difference of B against A and the metric's bound from
``BENCHMARK.json``; exits non-zero when any difference exceeds its
bound (run on two results of the same code, that is the repeatability
check) or when either result has a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(path_a: Path, path_b: Path, bounds: dict[str, float]) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    excess = 0
    print(
        f"{'workload':18}{'metric':24}{'A':>12}{'B':>12}"
        f"{'diff':>9}{'bound':>8}"
    )
    for workload in a:
        for side, result in (("A", a), ("B", b)):
            share = result[workload]["failed_share"]
            if share:
                print(f"{workload:18}failed_share {share:.4f} in {side}  FAIL")
                excess += 1
        for metric, entry in a[workload]["end_to_end"].items():
            va = entry["value"]
            vb = b[workload]["end_to_end"][metric]["value"]
            diff = (vb - va) / va
            bound = bounds[metric]
            verdict = ""
            if abs(diff) > bound:
                verdict = "  EXCESS"
                excess += 1
            print(
                f"{workload:18}{metric:24}{va:12.3f}{vb:12.3f}"
                f"{diff:+9.1%}{bound:8.0%}{verdict}"
            )
    print(f"{excess} metric(s) beyond their bound" if excess else "agree")
    return 1 if excess else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]), load_bounds())


if __name__ == "__main__":
    raise SystemExit(main())
