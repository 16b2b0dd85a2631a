"""E15 — the vectorized scan kernel vs the scalar tokenize+parse path.

The PR 7 microbench: cold in-situ scans over three file shapes —

* **wide numeric** (32 integer attrs) — the tokenizing wall of Figure 3,
  where per-row ``str.split`` and per-value ``int()`` dominate;
* **narrow numeric** (4 attrs) — little tokenizing to save, bounds the
  kernels' fixed overhead;
* **string-heavy** (10 text attrs) — conversion is a no-op, so only the
  offsets-matrix tokenization is in play.

For each shape the same cold query runs on two fresh engines over the
same quote-free file: one registered with the generator's unquoted
dialect (the scan kernel), one with the same dialect plus a quote
character (the RFC-4180 state machine, the scalar tokenizer).  The
*tokenize+parse+convert* seconds (the buckets the kernel replaces) are
compared.  Emits ``BENCH_tokenizer.json``.

The wide-numeric speedup is the PR's acceptance number (>= 3x at full
scale); tiny CI scales only sanity-check that the kernels win at all.
"""

from repro import (
    CsvDialect,
    DataType,
    PostgresRaw,
    generate_csv,
    uniform_table_spec,
)
from repro.rawio.dialect import DEFAULT_DIALECT

from .conftest import SCALE, emit_bench_artifact, print_records, scaled_rows

SHAPES = [
    ("wide", 32, DataType.INTEGER, 30_000),
    ("narrow", 4, DataType.INTEGER, 30_000),
    ("strings", 10, DataType.TEXT, 30_000),
]


#: Not kernel-eligible: the same file through the state machine.
QUOTED = CsvDialect(quote_char='"')


def _cold_scan_seconds(path, schema, sql, dialect):
    eng = PostgresRaw()
    eng.register_csv("t", path, schema, dialect)
    metrics = eng.query(sql).metrics
    buckets = metrics.component_seconds()
    hot = (
        buckets["tokenizing"] + buckets["parsing"] + buckets["convert"]
    )
    return hot, metrics.total_seconds


def test_kernel_vs_scalar_tokenize(benchmark, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tok")

    def sweep():
        records = []
        for label, n_attrs, dtype, rows in SHAPES:
            n_rows = scaled_rows(rows)
            path = tmp / f"{label}.csv"
            schema = generate_csv(
                path,
                uniform_table_spec(
                    n_attrs, n_rows, dtype=dtype, width=8, seed=77
                ),
            )
            last = n_attrs - 1
            if dtype is DataType.INTEGER:
                sql = f"SELECT a1, a{last} FROM t WHERE a0 < 500000"
            else:
                sql = f"SELECT a1, a{last} FROM t"
            kern_hot, kern_total = _cold_scan_seconds(
                path, schema, sql, DEFAULT_DIALECT
            )
            scalar_hot, scalar_total = _cold_scan_seconds(
                path, schema, sql, QUOTED
            )
            records.append(
                {
                    "shape": label,
                    "rows": n_rows,
                    "attrs": n_attrs,
                    "scalar_hot_s": scalar_hot,
                    "kernel_hot_s": kern_hot,
                    "speedup": (
                        scalar_hot / kern_hot if kern_hot else float("inf")
                    ),
                    "scalar_total_s": scalar_total,
                    "kernel_total_s": kern_total,
                }
            )
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_records(
        "E15: cold-scan tokenize+parse+convert, kernel vs state machine",
        records,
    )
    benchmark.extra_info["tokenizer"] = records
    by_shape = {r["shape"]: r for r in records}
    emit_bench_artifact(
        "tokenizer",
        {
            "rows": by_shape["wide"]["rows"],
            **{
                f"{shape}_speedup": by_shape[shape]["speedup"]
                for shape in by_shape
            },
            **{
                f"{shape}_kernel_hot_s": by_shape[shape]["kernel_hot_s"]
                for shape in by_shape
            },
        },
    )

    # Acceptance: the kernels collapse the wide-numeric hot path.  The
    # full >= 3x bar needs real row counts; scaled-down CI runs assert
    # a win, not the magnitude.
    wide = by_shape["wide"]["speedup"]
    floor = 3.0 if SCALE >= 0.5 else 1.2
    assert wide >= floor, (
        f"wide-numeric tokenize+convert speedup {wide:.2f}x < {floor}x"
    )
    for r in records:
        assert r["kernel_hot_s"] <= r["scalar_hot_s"] * 1.25, (
            f"{r['shape']}: kernels regressed the hot path"
        )
