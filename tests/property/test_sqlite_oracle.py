"""Differential tests against an external oracle: stdlib ``sqlite3``.

Every other equivalence suite compares two paths of this engine, which
share the planner and the executor.  Here a generated table with NULLs
is loaded into ``sqlite3`` too, and every generated statement must give
the same rows on both — cold, then repeated until its columns are
cache-resident, with appends interleaved between statements, across
batch sizes, the columnstore + materialized-aggregate tiers (with room
to spare, and under a budget that keeps the governor evicting), the
scalar tokenizer (a quoted dialect), and JSON lines (the JSONL kernel
on every window it reads, and the scalar parser on the windows whose
strings ``\\u``-escape the multi-byte words).  One
more column orders the table by ``i`` (NULLs last) and leads each
predicate with a conjunct on ``i`` or ``f`` that synopses can test, so
warm scans skip windows — and must still agree.
Another splits the table into two shards hashed on ``i`` and answers
through the scatter planner and gather merge, in process.

``REPRO_ORACLE_EXAMPLES`` sets the examples per column (default 25;
``make oracle`` runs a deep, seeded pass).

SQL semantics where sqlite's defaults differ are spelled out on its
side: ``LIKE`` is made case-sensitive and ``ORDER BY`` says ``NULLS
LAST`` (``NULLS FIRST`` descending).  Generated floats are multiples of
1/4 and small, so sums are exact in any order.
"""

from __future__ import annotations

import contextlib
import math
import os
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Column,
    CsvDialect,
    DataType,
    PartitionSpec,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    append_csv_rows,
    append_jsonl_rows,
    write_csv,
    write_jsonl,
)
from repro.core.raw_scan import RawScan
from repro.kernels import jsonl as jsonl_kernel
from repro.rawio.dialect import DEFAULT_DIALECT
from repro.sharding import (
    ScatterPlanner,
    ShardResult,
    append_rows_partitioned,
    gather,
    partition_file,
)

EXAMPLES = int(os.environ.get("REPRO_ORACLE_EXAMPLES", "25"))

SCHEMA = TableSchema(
    [
        Column("i", DataType.INTEGER),
        Column("j", DataType.INTEGER),
        Column("f", DataType.FLOAT),
        Column("s", DataType.TEXT),
    ]
)
NUMERIC = ("i", "j", "f")
#: Multi-byte words too: TEXT codes must order like sqlite's BINARY
#: collation (UTF-8 bytes), which is code point order.
WORDS = ("a", "b", "ab", "ba", "abc", "B", "bb", "é", "éa", "z", "日本")

VP_MV = {
    "batch_size": 7,
    "vp_enabled": True,
    "vp_min_accesses": 1,
    "mv_auto": True,
    "mv_min_repeats": 1,
}
CONFIGS = {
    "batch3": {"batch_size": 3},
    "batch7": {"batch_size": 7},
    "batch4096": {"batch_size": 4096},
    "vp_mv": VP_MV,
    # A budget of a few columns: the governor evicts between (and
    # within) statements in most examples, so scans are served from a
    # mix of evicted and surviving tiers.
    "vp_mv_tight": {**VP_MV, "memory_budget": 500},
    # The same bytes through the scalar tokenizer: a quoted dialect is
    # not kernel-eligible, so it runs the RFC-4180 state machine.
    "quoted": {"batch_size": 7},
    "jsonl": {"batch_size": 7},
}
#: Each column's CSV dialect, when not the default.
DIALECTS = {"quoted": CsvDialect(quote_char='"')}
#: Columns whose table is JSON lines, not CSV.
FORMATS = {"jsonl": "jsonl"}

# ----------------------------------------------------------------------
# Tables.
# ----------------------------------------------------------------------

ints = st.one_of(st.none(), st.integers(-9, 9))
floats = st.one_of(st.none(), st.integers(-40, 40).map(lambda q: q / 4))
texts = st.one_of(st.none(), st.sampled_from(WORDS))
row = st.tuples(ints, ints, floats, texts)
rows_of = st.lists(row, max_size=30)

# ----------------------------------------------------------------------
# Expressions: typed, so both engines accept them.
# ----------------------------------------------------------------------

int_literals = st.integers(-9, 9).map(str)
float_literals = st.integers(-40, 40).map(lambda q: repr(q / 4))
text_literals = st.sampled_from(WORDS).map(lambda w: f"'{w}'")


def _numeric(depth: int):
    leaf = st.one_of(st.sampled_from(NUMERIC), int_literals, float_literals)
    if depth == 0:
        return leaf
    inner = _numeric(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(inner, st.sampled_from("+-*"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
    )


numeric = _numeric(2)
compare_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
negation = st.sampled_from(["", "NOT "])


def _in_items(items):
    return st.lists(st.one_of(st.just("NULL"), items), min_size=1, max_size=4)


def _atoms(text: bool = True):
    """Predicate atoms; without ``text`` none reads ``s``."""
    nullable = st.one_of(numeric, st.just("s")) if text else numeric
    atoms = [
        st.tuples(numeric, compare_ops, numeric).map(" ".join),
        # ``%`` over integers, ``/`` with a FLOAT dividend: sqlite
        # would divide two integers as integers.
        st.tuples(
            st.sampled_from(["i", "j"]),
            int_literals,
            compare_ops,
            int_literals,
        ).map(lambda t: f"({t[0]} % {t[1]}) {t[2]} {t[3]}"),
        st.tuples(
            st.sampled_from(["i", "j", "2", "-3", "0"]),
            compare_ops,
            float_literals,
        ).map(lambda t: f"(f / {t[0]}) {t[1]} {t[2]}"),
        st.tuples(nullable, st.sampled_from(["=", "<>"])).map(
            lambda t: f"{t[0]} {t[1]} NULL"
        ),
        st.tuples(
            st.sampled_from(NUMERIC + (("s",) if text else ())),
            st.sampled_from(["", "NOT "]),
        ).map(lambda t: f"{t[0]} IS {t[1]}NULL"),
        st.tuples(
            numeric,
            negation,
            st.one_of(int_literals, st.just("NULL")),
            st.one_of(int_literals, st.just("NULL")),
        ).map(lambda t: f"{t[0]} {t[1]}BETWEEN {t[2]} AND {t[3]}"),
        st.tuples(numeric, negation, _in_items(int_literals)).map(
            lambda t: f"{t[0]} {t[1]}IN ({', '.join(t[2])})"
        ),
    ]
    if text:
        atoms += [
            st.tuples(st.just("s"), compare_ops, text_literals).map(
                " ".join
            ),
            st.tuples(st.just("s"), negation, _in_items(text_literals)).map(
                lambda t: f"{t[0]} {t[1]}IN ({', '.join(t[2])})"
            ),
            st.tuples(
                negation,
                st.lists(st.sampled_from("ab%_B"), min_size=1, max_size=4),
            ).map(lambda t: f"s {t[0]}LIKE '{''.join(t[1])}'"),
        ]
    return st.one_of(*atoms)


def _predicates(atoms):
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            inner.map(lambda p: f"(NOT {p})"),
        ),
        max_leaves=4,
    )


predicates = _predicates(_atoms())

# ----------------------------------------------------------------------
# Statements: (engine SQL, sqlite SQL, ordered?).
# ----------------------------------------------------------------------


def _projection(pred):
    sql = f"SELECT i, f, s FROM t WHERE {pred}"
    return sql, sql, False


def _global_aggregate(pred):
    sql = (
        "SELECT COUNT(*), COUNT(i), SUM(i), SUM(f), AVG(j), MIN(f), "
        f"MAX(s), MIN(s) FROM t WHERE {pred}"
    )
    return sql, sql, False


def _group_by(args):
    pred, key = args
    sql = (
        f"SELECT {key}, COUNT(*), SUM(i), AVG(f), MAX(j), MIN(s), MAX(s) "
        "FROM t "
        f"WHERE {pred} GROUP BY {key}"
    )
    return sql, sql, False


def _distinct(pred):
    sql = f"SELECT DISTINCT s, j FROM t WHERE {pred}"
    return sql, sql, False


def _top(args):
    pred, descending, limit, keys = args
    if descending:
        ours = ", ".join(f"{k} DESC" for k in keys)
        theirs = ", ".join(f"{k} DESC NULLS FIRST" for k in keys)
    else:
        ours = ", ".join(keys)
        theirs = ", ".join(f"{k} NULLS LAST" for k in keys)
    tail = f"FROM t WHERE {pred} ORDER BY"
    return (
        f"SELECT i, s {tail} {ours} LIMIT {limit}",
        f"SELECT i, s {tail} {theirs} LIMIT {limit}",
        True,
    )


def _statements(preds):
    return st.one_of(
        preds.map(_projection),
        preds.map(_global_aggregate),
        st.tuples(preds, st.sampled_from(["s", "j", "s, j"])).map(_group_by),
        preds.map(_distinct),
        st.tuples(
            preds,
            st.booleans(),
            st.integers(0, 12),
            st.sampled_from([("i", "s"), ("s", "i")]),
        ).map(_top),
    )


def _steps(statements):
    """A step is a statement or an external append of rows."""
    return st.lists(
        st.one_of(
            statements.map(lambda s: ("query", s)),
            st.lists(row, min_size=1, max_size=6).map(
                lambda r: ("append", r)
            ),
        ),
        min_size=1,
        max_size=8,
    )


steps = _steps(_statements(predicates))

# ----------------------------------------------------------------------
# The window-skipping column: a table ordered by ``i``, predicates led
# by a conjunct a synopsis can test.
# ----------------------------------------------------------------------

SORTED_CONFIGS = ("batch3", "batch7", "vp_mv")

sorted_rows = st.lists(row, min_size=6, max_size=30).map(
    lambda rows: sorted(rows, key=lambda r: (r[0] is None, r[0] or 0))
)
range_ops = st.sampled_from(["=", "<", "<=", ">", ">="])
number_literals = st.one_of(int_literals, float_literals)
prunable = st.one_of(
    st.tuples(st.sampled_from(["i", "f"]), range_ops, number_literals).map(
        " ".join
    ),
    st.tuples(number_literals, range_ops, st.just("i")).map(" ".join),
    st.tuples(int_literals, int_literals).map(
        lambda t: f"i BETWEEN {t[0]} AND {t[1]}"
    ),
    _in_items(int_literals).map(lambda items: f"i IN ({', '.join(items)})"),
)
sorted_steps = _steps(
    _statements(
        st.one_of(
            prunable,
            st.tuples(prunable, predicates).map(
                lambda t: f"{t[0]} AND {t[1]}"
            ),
        )
    )
)

# ----------------------------------------------------------------------
# The map-jump column: ``i``, ``j`` and ``f`` cached, ``s`` only mapped,
# and predicates that never read ``s`` — so warm scans are resident and
# jump the map for ``s``, once per stride of many windows.
# ----------------------------------------------------------------------

JUMPED_CONFIGS = ("batch3", "batch7")
#: Cache the numeric columns; map ``s`` without converting a row of it.
JUMPED_WARMUP = ("SELECT i, j, f FROM t", "SELECT s FROM t WHERE i <> i")

jumped_steps = _steps(_statements(_predicates(_atoms(text=False))))

# ----------------------------------------------------------------------
# Comparison.
# ----------------------------------------------------------------------


def _key(row):
    return tuple(
        (v is None, round(v, 6) if isinstance(v, float) else v) for v in row
    )


def _same(got, want, ordered):
    if len(got) != len(want):
        return False
    if not ordered:
        got, want = sorted(got, key=_key), sorted(want, key=_key)
    for g_row, w_row in zip(got, want):
        for g, w in zip(g_row, w_row):
            if isinstance(g, float) or isinstance(w, float):
                if g is None or w is None:
                    return False
                if not math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif g != w:
                return False
    return True


def _oracle(rows):
    db = sqlite3.connect(":memory:")
    db.execute("PRAGMA case_sensitive_like = ON")
    db.execute("CREATE TABLE t (i INTEGER, j INTEGER, f REAL, s TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    return db


def _matches_sqlite(
    tmp_path_factory, name, rows, plan, warmup=()
) -> int:
    """Run ``plan`` on a fresh engine (after the ``warmup`` statements)
    and on sqlite; every statement's rows must agree.  Returns the
    windows the engine's scans skipped."""
    tmp = tmp_path_factory.mktemp("oracle")
    dialect = DIALECTS.get(name, DEFAULT_DIALECT)
    jsonl = FORMATS.get(name) == "jsonl"
    if jsonl:
        path = write_jsonl(tmp / "t.jsonl", rows, SCHEMA)
    else:
        path = write_csv(tmp / "t.csv", rows, SCHEMA, dialect)
    config = dict(CONFIGS[name])
    if config.get("vp_enabled"):
        config["vp_dir"] = str(tmp / "vp")
    db = _oracle(rows)
    try:
        with PostgresRaw(PostgresRawConfig(**config)) as engine:
            if jsonl:
                engine.register_jsonl("t", path, SCHEMA)
            else:
                engine.register_csv("t", path, SCHEMA, dialect)
            for sql in warmup:
                engine.query(sql)
            for kind, step in plan:
                if kind == "append":
                    if jsonl:
                        append_jsonl_rows(path, step, SCHEMA)
                    else:
                        append_csv_rows(path, step, SCHEMA, dialect)
                    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", step)
                    continue
                ours, theirs, ordered = step
                want = db.execute(theirs).fetchall()
                # Cold, then warm: the repeats run over cached columns.
                for __ in range(3):
                    got = list(engine.query(ours))
                    assert _same(got, want, ordered), (ours, got, want)
            registry = engine.telemetry.registry
            return registry.counter("scan_windows_skipped_total").value
    finally:
        db.close()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_matches_sqlite(tmp_path_factory, monkeypatch, name):
    if FORMATS.get(name) == "jsonl":
        # These tables are a few rows: let the kernel read every window
        # and map jump it can, however small.
        monkeypatch.setattr(jsonl_kernel, "MIN_RECORDS", 1)
        monkeypatch.setattr(jsonl_kernel, "MIN_VALUES", 1)

    @given(rows=rows_of, plan=steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        _matches_sqlite(tmp_path_factory, name, rows, plan)

    run()


@pytest.mark.parametrize("name", SORTED_CONFIGS)
def test_window_skipping_matches_sqlite(tmp_path_factory, name):
    skipped = []

    @given(rows=sorted_rows, plan=sorted_steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        skipped.append(_matches_sqlite(tmp_path_factory, name, rows, plan))

    run()
    # The column is about skipped windows: some scans must have skipped.
    assert sum(skipped) > 0


@pytest.mark.parametrize("name", JUMPED_CONFIGS)
def test_resident_map_jumps_match_sqlite(tmp_path_factory, monkeypatch, name):
    jumped = []
    execute = RawScan.execute

    def spy(self):
        try:
            yield from execute(self)
        finally:
            plan = self.plan
            jumped.append(
                plan is not None
                and plan.resident
                and any(
                    a in seg.chunk_hits
                    for seg in plan.segments
                    for a in plan.proj_attrs
                )
            )

    monkeypatch.setattr(RawScan, "execute", spy)

    @given(rows=rows_of, plan=jumped_steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        _matches_sqlite(tmp_path_factory, name, rows, plan, JUMPED_WARMUP)

    run()
    # The column is about resident scans that jump the map for a
    # projection column: some scans must have.
    assert any(jumped)


# ----------------------------------------------------------------------
# The 2-shard column: scatter planner + gather over two engines.
# ----------------------------------------------------------------------


def _shards_match_sqlite(tmp_path_factory, rows, plan, shards=2):
    """Run ``plan`` on ``shards`` engines over hash-on-``i`` slices of
    the table, merged by the coordinator's planner; rows must agree
    with sqlite and column names with one engine over the whole file."""
    tmp = tmp_path_factory.mktemp("oracle_shards")
    path = tmp / "t.csv"
    write_csv(path, rows, SCHEMA)
    spec = PartitionSpec("i", "hash", shards)
    targets = partition_file(path, SCHEMA, spec, tmp / "shards")
    planner = ScatterPlanner({"t": spec}, shards)
    db = _oracle(rows)
    with contextlib.ExitStack() as stack:
        stack.callback(db.close)
        config = PostgresRawConfig(batch_size=7)
        single = stack.enter_context(PostgresRaw(config))
        single.register_csv("t", path, SCHEMA)
        engines = []
        for target in targets:
            engine = stack.enter_context(PostgresRaw(config))
            engine.register_csv("t", target, SCHEMA)
            engines.append(engine)

        def run_shard(index, shard_sql):
            result = engines[index].query(shard_sql)
            return ShardResult(
                result.column_names, result.column_types, result.rows
            )

        for kind, step in plan:
            if kind == "append":
                append_csv_rows(path, step, SCHEMA)
                append_rows_partitioned(step, SCHEMA, spec, targets)
                db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", step)
                continue
            ours, theirs, ordered = step
            want = db.execute(theirs).fetchall()
            names = single.query(ours).column_names
            for __ in range(2):  # cold, then warm
                merged = gather(planner.plan(ours), shards, run_shard)
                got = list(merged.rows())
                assert _same(got, want, ordered), (ours, got, want)
                assert merged.columns == names, ours


@given(rows=rows_of, plan=steps)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_two_shards_match_sqlite(tmp_path_factory, rows, plan):
    _shards_match_sqlite(tmp_path_factory, rows, plan)
