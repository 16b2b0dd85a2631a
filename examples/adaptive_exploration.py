"""Exploratory analysis with epochs — Part II of the demo.

A scientist skims through a wide raw file: each "epoch" of the session
focuses on a different slice of attributes.  The monitoring panel
(Figure 2 of the paper) shows the positional map and cache following the
workload — filling, shifting and evicting under a tight budget.

Run:  python examples/adaptive_exploration.py
"""

import tempfile
from pathlib import Path

from repro import (
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
    uniform_table_spec,
)
from repro.monitor import SystemMonitorPanel
from repro.workload import EpochWorkload


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_explore_"))
    raw_file = workdir / "wide.csv"
    schema = generate_csv(
        raw_file, uniform_table_spec(n_attrs=12, n_rows=40_000, seed=3)
    )

    # A budget deliberately too small for the whole table: the structures
    # must *follow* the exploration instead of holding everything.
    engine = PostgresRaw(PostgresRawConfig(memory_budget=5 * 1024 * 1024))
    engine.register_csv("w", raw_file, schema)
    panel = SystemMonitorPanel(engine.table_state("w"))

    workload = EpochWorkload(
        "w",
        schema,
        n_epochs=3,
        queries_per_epoch=5,
        window_width=4,
        projection_width=2,
        seed=42,
    )

    for epoch in workload.epochs():
        print(f"\n--- epoch {epoch.index}: exploring {epoch.attributes} ---")
        for spec in epoch.queries:
            metrics = engine.query(spec.to_sql()).metrics
            panel.snapshot()
            print(
                f"  {spec.to_sql()[:68]:<68} "
                f"{metrics.total_seconds * 1000:7.1f} ms "
                f"(tokenize {metrics.tokenizing_seconds * 1000:6.1f} ms)"
            )
        print()
        print(panel.render())

    print("\ncache utilization series (Figure 2):")
    for query_index, pct in panel.cache_utilization_series():
        bar = "#" * int(pct / 2)
        print(f"  q{query_index:<3} {bar} {pct:.1f}%")


if __name__ == "__main__":
    main()
