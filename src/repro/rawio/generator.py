"""Synthetic raw-data generator.

The demo lets the audience "directly generate their own input
comma-separated value (CSV) files and choose parameters such as the
number of attributes and the number of tuples in the file, the width of
attributes, as well as the type of the input data".  :func:`generate_csv`
is that generator: deterministic (seeded), typed, with controllable
attribute widths, value distributions (uniform / zipf / sequential) and
NULL fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..catalog.schema import Column, TableSchema
from ..datatypes import DataType, days_to_date
from ..errors import SchemaError
from .dialect import CsvDialect, DEFAULT_DIALECT

_ALPHABET = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_CHUNK_ROWS = 65536


@dataclass(frozen=True)
class ColumnSpec:
    """Recipe for one generated attribute.

    ``width`` controls the on-disk width: integers are zero-padded and
    text is exactly ``width`` characters — the paper's "width of the
    attributes" knob, which determines how much tokenizing the positional
    map can skip.
    """

    name: str
    dtype: DataType = DataType.INTEGER
    width: int | None = None
    distribution: str = "uniform"  # uniform | zipf | sequential
    low: int = 0
    high: int = 1_000_000
    cardinality: int | None = None
    null_fraction: float = 0.0
    zipf_s: float = 1.3

    def __post_init__(self) -> None:
        if self.distribution not in ("uniform", "zipf", "sequential"):
            raise SchemaError(f"unknown distribution {self.distribution!r}")
        if not 0.0 <= self.null_fraction < 1.0:
            raise SchemaError("null_fraction must be in [0, 1)")
        if self.high <= self.low and self.distribution == "uniform":
            raise SchemaError("need low < high for uniform columns")
        if self.width is not None and self.width <= 0:
            raise SchemaError("width must be positive")


@dataclass(frozen=True)
class DatasetSpec:
    """A full raw file recipe: columns x rows, dialect and seed."""

    columns: tuple[ColumnSpec, ...]
    n_rows: int
    seed: int = 42
    dialect: CsvDialect = DEFAULT_DIALECT

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise SchemaError("n_rows must be >= 0")
        if not self.columns:
            raise SchemaError("need at least one column")

    def schema(self) -> TableSchema:
        return TableSchema([Column(c.name, c.dtype) for c in self.columns])


def uniform_table_spec(
    n_attrs: int,
    n_rows: int,
    dtype: DataType = DataType.INTEGER,
    width: int | None = 8,
    seed: int = 42,
    null_fraction: float = 0.0,
    dialect: CsvDialect = DEFAULT_DIALECT,
) -> DatasetSpec:
    """The workhorse spec: ``n_attrs`` same-typed attributes ``a0..aN``.

    Mirrors the demo's default generated file — a homogeneous table whose
    attribute count and width the audience can vary.
    """
    columns = tuple(
        ColumnSpec(
            name=f"a{i}",
            dtype=dtype,
            width=width,
            null_fraction=null_fraction,
        )
        for i in range(n_attrs)
    )
    return DatasetSpec(
        columns=columns, n_rows=n_rows, seed=seed, dialect=dialect
    )


def _generate_texts(
    rng: np.random.Generator, spec: ColumnSpec, n: int
) -> list[str]:
    """Raw text values for one column chunk (NULLs not yet applied)."""
    width = spec.width or 8
    if spec.dtype is DataType.INTEGER:
        values = _integer_values(rng, spec, n)
        if spec.width is not None:
            return [str(v).zfill(width) for v in values.tolist()]
        return [str(v) for v in values.tolist()]
    if spec.dtype is DataType.FLOAT:
        values = rng.uniform(spec.low, spec.high, n)
        return [f"{v:.4f}" for v in values.tolist()]
    if spec.dtype is DataType.BOOLEAN:
        return [
            "true" if v else "false" for v in (rng.random(n) < 0.5).tolist()
        ]
    if spec.dtype is DataType.DATE:
        days = rng.integers(spec.low, max(spec.high, spec.low + 1), n)
        return [days_to_date(d).isoformat() for d in days.tolist()]
    if spec.dtype is DataType.TEXT:
        if spec.cardinality:
            pool = _text_pool(rng, spec.cardinality, width)
            picks = _integer_values(rng, spec, n) % spec.cardinality
            return [pool[p] for p in picks.tolist()]
        letters = rng.integers(0, len(_ALPHABET), size=(n, width))
        chars = _ALPHABET[letters]
        return ["".join(row) for row in chars.tolist()]
    raise SchemaError(f"unhandled dtype {spec.dtype}")


def _integer_values(
    rng: np.random.Generator, spec: ColumnSpec, n: int
) -> np.ndarray:
    if spec.distribution == "uniform":
        return rng.integers(spec.low, spec.high, n)
    if spec.distribution == "zipf":
        draw = rng.zipf(spec.zipf_s, n)
        span = max(spec.high - spec.low, 1)
        return spec.low + (draw - 1) % span
    # sequential
    start = spec.low
    return np.arange(start, start + n, dtype=np.int64)


def _text_pool(
    rng: np.random.Generator, cardinality: int, width: int
) -> list[str]:
    letters = rng.integers(0, len(_ALPHABET), size=(cardinality, width))
    return ["".join(row) for row in _ALPHABET[letters].tolist()]


def generate_csv(path: str | Path, spec: DatasetSpec) -> TableSchema:
    """Write the raw file described by ``spec`` and return its schema.

    Generation is chunked so multi-million-row files do not materialize
    in memory; the same ``(spec, seed)`` always produces byte-identical
    output.
    """
    path = Path(path)
    dialect = spec.dialect
    delim = dialect.delimiter
    schema = spec.schema()
    rng = np.random.default_rng(spec.seed)
    # Sequential columns must continue across chunks; track next start.
    seq_offsets = {
        c.name: c.low
        for c in spec.columns
        if c.distribution == "sequential"
    }

    with open(path, "w", encoding="utf-8", newline="") as f:
        if dialect.has_header:
            f.write(delim.join(schema.names()) + "\n")
        remaining = spec.n_rows
        while remaining > 0:
            n = min(remaining, _CHUNK_ROWS)
            columns_text: list[list[str]] = []
            for col in spec.columns:
                if col.distribution == "sequential":
                    col = replace(col, low=seq_offsets[col.name])
                    seq_offsets[col.name] += n
                texts = _generate_texts(rng, col, n)
                if col.null_fraction > 0.0:
                    null_rows = rng.random(n) < col.null_fraction
                    token = dialect.null_token
                    texts = [
                        token if is_null else t
                        for t, is_null in zip(texts, null_rows.tolist())
                    ]
                columns_text.append(texts)
            lines = "\n".join(delim.join(row) for row in zip(*columns_text))
            f.write(lines + "\n")
            remaining -= n
    return schema
