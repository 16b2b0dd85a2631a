"""The full demonstration, as a console walkthrough.

Recreates the demo paper's three parts end to end::

    python -m repro.demo            # default sizes (~15 s)
    python -m repro.demo --rows 100000 --attrs 12

Part I   — the NoDB pitch: register a raw file, answer immediately.
Part II  — in-situ trade-offs: execution breakdown, query adaptation
           over epochs with the monitoring panel, live updates.
Part III — the friendly race against conventional DBMS.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from .baselines import DBMS_X, MYSQL, POSTGRESQL
from .config import PostgresRawConfig
from .core.engine import PostgresRaw
from .monitor import BreakdownReport, SystemMonitorPanel, render_breakdown
from .rawio.generator import generate_csv, uniform_table_spec
from .rawio.writer import append_csv_rows
from .workload import (
    ConventionalContestant,
    EpochWorkload,
    ExternalFilesContestant,
    FriendlyRace,
    PostgresRawContestant,
    RandomSelectProjectWorkload,
)


def _banner(text: str) -> None:
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def part_one(path: Path, schema) -> None:
    _banner("PART I — the NoDB philosophy: zero data-to-query time")
    engine = PostgresRaw()
    engine.register_csv("t", path, schema)
    print("registered the raw file; bytes read so far: 0")
    result = engine.query("SELECT a0, a1 FROM t WHERE a2 < 100000 LIMIT 5")
    print(
        f"first answer in {result.metrics.total_seconds * 1000:.1f} ms "
        "(no loading step):"
    )
    print(result.format_table())


def part_two(path: Path, schema) -> None:
    _banner("PART II — in-situ trade-offs")

    print("\n-- Query Execution Breakdown (Figure 3) --")
    query = "SELECT a0, a3 FROM t WHERE a1 < 200000"
    baseline = PostgresRaw(PostgresRawConfig.baseline())
    baseline.register_csv("t", path, schema)
    adaptive = PostgresRaw()
    adaptive.register_csv("t", path, schema)
    report = BreakdownReport()
    report.add("PostgresRaw cold", adaptive.query(query).metrics)
    report.add("PostgresRaw PM+C", adaptive.query(query).metrics)
    report.add("Baseline", baseline.query(query).metrics)
    print(render_breakdown(report))

    print("\n-- Query Adaptation over epochs (monitoring panel) --")
    explorer = PostgresRaw(
        PostgresRawConfig(memory_budget=2 * 1024 * 1024)
    )
    explorer.register_csv("t", path, schema)
    panel = SystemMonitorPanel(explorer.table_state("t"))
    workload = EpochWorkload(
        "t", schema, n_epochs=2, queries_per_epoch=4, window_width=3
    )
    for epoch_index, spec in workload.flat_queries():
        metrics = explorer.query(spec.to_sql()).metrics
        panel.snapshot()
        print(
            f"  epoch {epoch_index}  {spec.to_sql()[:58]:<58} "
            f"{metrics.total_seconds * 1000:7.1f} ms"
        )
    print()
    print(panel.render())

    print("\n-- Updates: appending outside the engine --")
    before = explorer.query("SELECT COUNT(*) AS n FROM t").scalar()
    tail = [tuple(range(i, i + len(schema))) for i in range(3)]
    append_csv_rows(path, tail, schema)
    after = explorer.query("SELECT COUNT(*) AS n FROM t").scalar()
    print(f"rows before append: {before}; next query sees: {after}")


def part_three(path: Path, schema, workdir: Path) -> None:
    _banner("PART III — friendly race")
    queries = RandomSelectProjectWorkload("t", schema, seed=23).queries(8)
    race = FriendlyRace("t", path, schema)
    report = race.run(
        [
            PostgresRawContestant(),
            ConventionalContestant(POSTGRESQL, storage_dir=workdir / "pg"),
            ConventionalContestant(MYSQL, storage_dir=workdir / "my"),
            ConventionalContestant(DBMS_X, storage_dir=workdir / "dx"),
            ExternalFilesContestant(),
        ],
        queries,
    )
    print(report.render())
    print(f"\nfirst answer: {report.winner_first_answer()}")
    print(f"lowest total: {report.winner_total()}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=40_000)
    parser.add_argument("--attrs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2012)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="repro_demo_"))
    path = workdir / "demo.csv"
    schema = generate_csv(
        path,
        uniform_table_spec(args.attrs, args.rows, seed=args.seed),
    )
    print(
        f"generated {path} "
        f"({path.stat().st_size / (1024 * 1024):.1f} MiB, "
        f"{args.rows} rows x {args.attrs} attributes)"
    )

    part_one(path, schema)
    part_two(path, schema)
    part_three(path, schema, workdir)


if __name__ == "__main__":
    main()
