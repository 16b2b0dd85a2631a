"""Minor page faults and latency of cold ops on fresh engines.

Every op runs on a fresh default engine over a generated 24 000-row
CSV (the shape of the budget benchmark's ``cold_first_touch`` table), so
it tokenizes, converts and installs from scratch.  Per op class the
script prints the median minor page faults (``ru_minflt``) and the
median milliseconds.  A fault is a page the process touches for the
first time since the OS handed it back; on a VM each costs microseconds,
so the count shows how much of a cold op is re-faulting memory an
earlier op freed.  The first op of a process also pays for its imports
and first touch: it is run untimed::

    PYTHONPATH=src python tools/fault_tax.py            # 15 ops per class
    PYTHONPATH=src python tools/fault_tax.py --ops 30 --seed 3

It uses only the package's public API, so it runs on any commit.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    Column,
    DataType,
    PostgresRaw,
    TableSchema,
    write_csv,
)

ROWS = 24_000
SCHEMA = TableSchema(
    [
        Column("id", DataType.INTEGER),
        Column("region", DataType.TEXT),
        Column("cat", DataType.INTEGER),
        Column("amount", DataType.INTEGER),
        Column("qty", DataType.INTEGER),
        Column("price", DataType.FLOAT),
        *(Column(f"a{i}", DataType.INTEGER) for i in range(6, 10)),
        Column("note", DataType.TEXT),
        Column("a11", DataType.INTEGER),
    ]
)


def write_table(path: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = ROWS
    columns = [
        range(n),
        [f"region_{i:02d}" for i in rng.integers(0, 16, n).tolist()],
        rng.integers(0, 100, n).tolist(),
        rng.integers(0, 100_000, n).tolist(),
        rng.integers(1, 50, n).tolist(),
        np.round(rng.random(n) * 1000.0, 2).tolist(),
        *(rng.integers(0, 10**6, n).tolist() for __ in range(4)),
        [f"note-{v:09d}" for v in rng.integers(0, 10**9, n).tolist()],
        rng.integers(0, 10**6, n).tolist(),
    ]
    write_csv(path, list(zip(*columns)), SCHEMA)


def statements(kind: str, rng: np.random.Generator) -> list[str]:
    if kind == "point":
        key = int(rng.integers(0, ROWS))
        return [f"SELECT id, amount, note FROM t WHERE id = {key}"]
    if kind == "filter_agg":
        x, c = int(rng.integers(40_000, 60_000)), int(rng.integers(20, 40))
        return [
            "SELECT SUM(amount), COUNT(*), AVG(price) FROM t "
            f"WHERE amount < {x} AND cat >= {c}"
        ]
    if kind == "projection":
        bound = int(rng.integers(20_000, 60_000))
        return [
            "SELECT id, region, amount, qty, price, a6 FROM t "
            f"WHERE a7 < {bound}"
        ]
    return [
        "SELECT region, COUNT(*), SUM(amount) FROM t GROUP BY region",
        "SELECT cat, COUNT(*), SUM(amount), AVG(price) FROM t GROUP BY cat",
        "SELECT region, cat, SUM(qty), COUNT(*) FROM t "
        "GROUP BY region, cat",
        "SELECT COUNT(*), SUM(amount) FROM t",
    ]


def cold_op(path: Path, sqls: list[str]) -> tuple[int, float]:
    """(minor faults, ms) of ``sqls`` on a fresh engine, its
    construction and close included."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with PostgresRaw() as engine:
        engine.register_csv("t", str(path), SCHEMA)
        for sql in sqls:
            engine.query(sql)
    ms = (time.perf_counter() - start) * 1e3
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, ms


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=15, help="ops per class")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    kinds = ("point", "filter_agg", "projection", "dashboard")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, args.seed)
        cold_op(path, statements("point", rng))  # imports, first touch
        samples: dict[str, list[tuple[int, float]]] = {k: [] for k in kinds}
        for __ in range(args.ops):  # classes interleaved
            for kind in kinds:
                samples[kind].append(cold_op(path, statements(kind, rng)))
    print(f"{'op class':<12} {'minflt/op':>10} {'ms (median)':>12}")
    for kind in kinds:
        faults = statistics.median(f for f, __ in samples[kind])
        ms = statistics.median(m for __, m in samples[kind])
        print(f"{kind:<12} {faults:>10.0f} {ms:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
