"""Seeded data for the budget benchmark: the ``facts`` / ``events`` table.

One schema, two raw formats.  The rows are held as numpy columns
(:class:`Table`) so the oracle can answer every benchmark query without
a second ``repro`` engine; :func:`write_csv` / :func:`write_jsonl` from
the package under test only *render* them to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    Column,
    DataType,
    TableSchema,
    append_jsonl_rows,
    write_csv,
    write_jsonl,
)

#: Column order is the attribute order inside each raw record.
COLUMNS = (
    ("id", DataType.INTEGER),
    ("region", DataType.TEXT),
    ("cat", DataType.INTEGER),
    ("amount", DataType.INTEGER),
    ("qty", DataType.INTEGER),
    ("price", DataType.FLOAT),
    ("a6", DataType.INTEGER),
    ("a7", DataType.INTEGER),
    ("a8", DataType.INTEGER),
    ("a9", DataType.INTEGER),
    ("note", DataType.TEXT),
    ("a11", DataType.INTEGER),
)
SCHEMA = TableSchema([Column(name, dtype) for name, dtype in COLUMNS])
REGIONS = tuple(f"region_{i:02d}" for i in range(16))

#: Rows of ``facts.csv`` (warm_mix, wire_mix).
FACTS_ROWS = 80_000
#: Rows of the file every cold_first_touch op re-reads from scratch.
#: Smaller than ``facts`` so that 36 cold ops per class fit a run.
COLD_ROWS = 24_000
#: Rows of ``events.jsonl`` before the first append, and per append.
#: (JSONL scans are interpreted: sized so 36 ops per class fit a run.
#: Appends are small because every op's cost follows the file's size:
#: with 50-row appends the file grew by half during a run, each class's
#: samples formed a ramp of +35 %, and a median over a ramp moves with
#: whatever the machine did in its middle; what an append triggers
#: does not depend on its size.)
EVENTS_ROWS = 15_000
APPEND_ROWS = 20


@dataclass
class Table:
    """Generated rows as numpy columns; ``n`` rows are "on disk"."""

    columns: dict[str, np.ndarray]
    n: int
    #: Oracle answers that depend on nothing but ``n`` (one entry).
    memo: dict = field(default_factory=dict, repr=False)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name][: self.n]

    def rows(self, start: int, stop: int) -> list[tuple]:
        """Python tuples for rows ``[start, stop)`` in schema order."""
        lists = [
            self.columns[name][start:stop].tolist() for name, _ in COLUMNS
        ]
        return list(zip(*lists))


def generate(total_rows: int, seed: int, initial_rows: int | None = None):
    """``total_rows`` seeded rows, the first ``initial_rows`` on disk."""
    rng = np.random.default_rng(seed)
    n = total_rows
    regions = np.array(REGIONS, dtype=object)
    notes = rng.integers(0, 10**9, n)
    columns = {
        "id": np.arange(n, dtype=np.int64),
        "region": regions[rng.integers(0, len(REGIONS), n)],
        "cat": rng.integers(0, 100, n),
        "amount": rng.integers(0, 100_000, n),
        "qty": rng.integers(1, 50, n),
        "price": np.round(rng.random(n) * 1000.0, 2),
        "a6": rng.integers(0, 10**6, n),
        "a7": rng.integers(0, 10**6, n),
        "a8": rng.integers(0, 10**6, n),
        "a9": rng.integers(0, 10**6, n),
        "note": np.array(
            [f"note-{v:09d}" for v in notes.tolist()], dtype=object
        ),
        "a11": rng.integers(0, 10**6, n),
    }
    return Table(columns, n if initial_rows is None else initial_rows)


def write_table(table: Table, path: Path, fmt: str) -> Path:
    """Render the on-disk prefix of ``table`` as ``fmt`` at ``path``."""
    rows = table.rows(0, table.n)
    if fmt == "csv":
        return write_csv(path, rows, SCHEMA)
    return write_jsonl(path, rows, SCHEMA)


def append_events(table: Table, path: Path, count: int = APPEND_ROWS) -> None:
    """The external writer: ``count`` more rows reach the JSONL file."""
    append_jsonl_rows(path, table.rows(table.n, table.n + count), SCHEMA)
    table.n += count
