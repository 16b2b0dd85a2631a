"""Differential tests against an external oracle: stdlib ``sqlite3``.

Every other equivalence suite compares two paths of this engine, which
share the planner and the executor.  Here a generated table with NULLs
is loaded into ``sqlite3`` too, and every generated statement must give
the same rows on both — cold, then repeated until its columns are
cache-resident, with appends interleaved between statements, across
batch sizes, the columnstore + materialized-aggregate tiers (with room
to spare, and under a budget that keeps the governor evicting; their
plans start with selective projections that load columns, the one way
into the columnstore, and some scan must read it), the
scalar tokenizer (a quoted dialect), and JSON lines (the JSONL kernel
on every window it reads, and the scalar parser on the windows whose
strings ``\\u``-escape the multi-byte words).  One
more column orders the table by ``i`` (NULLs last) and leads each
predicate with a conjunct on ``i`` or ``f`` that synopses can test, so
warm scans skip windows — and must still agree.
Another splits the table into two shards hashed on ``i`` and answers
through the scatter planner and gather merge, in process.  The
templated column follows each statement with the same shape under a
second draw of its literals, which the plan cache answers by binding
them into the first one's template.  The loaded
column repeats selective projections with the columnstore on until the
column they read through the positional map is loaded and read from
there, across appends and a rewrite of the file.  Every column
reads with ``query()``, which pulls the plan on the caller's thread,
except the streamed one: it reads through cursors with ``fetchmany``,
on the producer thread, and closes some of them after the first batch.

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
import threading

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
from repro.sql.lexer import SHAPE_MARKS, lift_literals

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
    "mv_auto": True,
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

#: What the columnstore columns run first: a selective projection of
#: ``i``, ``f`` and ``s`` twice.  Its repeats jump them through the map,
#: paying their rent, until the second statement loads them — the one
#: way into the columnstore — and reads them from there.
LOAD_STEPS = [("query", _projection("j IS NULL OR (j % 2) = 0"))] * 2

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
# The loaded column: the map-jump column's warm-up with the columnstore
# on, and only selective projections of ``s`` — so their repeats pay
# ``s``'s rent until a scan loads it into the columnstore (rent-or-buy)
# — with appends before and after one rewrite, which starts every tier
# and the rent over.
# ----------------------------------------------------------------------

LOADED = {"batch_size": 7, "vp_enabled": True}

_loaded_projections = _steps(
    _predicates(_atoms(text=False)).map(_projection)
)
loaded_steps = st.tuples(
    _loaded_projections, rows_of, _loaded_projections
).map(lambda t: [*LOAD_STEPS, *t[0], ("rewrite", t[1]), *t[2]])

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


def _within(got, want):
    """Is ``got`` a sub-multiset of ``want`` (a closed cursor's rows)?"""
    left = sorted(want, key=_key)
    for row in got:
        key = _key(row)
        match = next((w for w in left if _key(w) == key), None)
        if match is None:
            return False
        left.remove(match)
    return True


def _query(engine, sql, repeat):
    """Read ``sql`` the classic way: drained on the caller's thread."""
    return list(engine.query(sql)), True


def _matches_sqlite(
    tmp_path_factory, name, rows, plan, warmup=(), read=_query
) -> int:
    """Run ``plan`` on a fresh engine (after the ``warmup`` statements)
    and on sqlite; every statement's rows must agree.  ``read(engine,
    sql, repeat)`` returns the rows and whether they are all of them.
    A ``rewrite`` step replaces the table's rows.  Returns the engine's
    metrics registry."""
    tmp = tmp_path_factory.mktemp("oracle")
    dialect = DIALECTS.get(name, DEFAULT_DIALECT)
    jsonl = FORMATS.get(name) == "jsonl"

    def write(rows):
        if jsonl:
            return write_jsonl(tmp / "t.jsonl", rows, SCHEMA)
        return write_csv(tmp / "t.csv", rows, SCHEMA, dialect)

    path = write(rows)
    config = dict(CONFIGS[name] if name in CONFIGS else LOADED)
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
                if kind == "rewrite":
                    mtime = path.stat().st_mtime_ns
                    write(step)
                    # Another fingerprint, even within one clock tick.
                    os.utime(path, ns=(mtime + 10**9,) * 2)
                    db.execute("DELETE FROM t")
                    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", step)
                    continue
                ours, theirs, ordered = step
                want = db.execute(theirs).fetchall()
                # Cold, then warm: the repeats run over cached columns.
                for repeat in range(3):
                    got, whole = read(engine, ours, repeat)
                    if whole:
                        assert _same(got, want, ordered), (ours, got, want)
                    else:
                        assert _within(got, want), (ours, got, want)
            return engine.telemetry.registry
    finally:
        db.close()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_matches_sqlite(tmp_path_factory, monkeypatch, name):
    if FORMATS.get(name) == "jsonl":
        # These tables are a few rows: let the kernel read every window
        # and map jump it can, however small.
        monkeypatch.setattr(jsonl_kernel, "MIN_RECORDS", 1)
        monkeypatch.setattr(jsonl_kernel, "MIN_VALUES", 1)
    vp = CONFIGS[name].get("vp_enabled", False)
    served, mv_served = [], []

    @given(rows=rows_of, plan=steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        if vp:
            plan = LOAD_STEPS + plan
        registry = _matches_sqlite(tmp_path_factory, name, rows, plan)
        served.append(registry.counter("vp_served_total").value)
        mv_served.append(
            registry.counter("mv_hits_total").value
            + registry.counter("mv_partial_hits_total").value
        )

    run()
    # A columnstore column is about the columnstore: it must have
    # served some scan.
    assert sum(served) > 0 or not vp
    # ... and ``vp_mv`` about MVs too: the capture rule must not quietly
    # switch MV coverage off.
    assert sum(mv_served) > 0 or name != "vp_mv"


@pytest.mark.parametrize("name", SORTED_CONFIGS)
def test_window_skipping_matches_sqlite(tmp_path_factory, name):
    vp = CONFIGS[name].get("vp_enabled", False)
    skipped, served = [], []

    @given(rows=sorted_rows, plan=sorted_steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        if vp:
            plan = LOAD_STEPS + plan
        registry = _matches_sqlite(tmp_path_factory, name, rows, plan)
        skipped.append(registry.counter("scan_windows_skipped_total").value)
        served.append(registry.counter("vp_served_total").value)

    run()
    # The column is about skipped windows: some scans must have skipped.
    assert sum(skipped) > 0
    assert sum(served) > 0 or not vp


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


def test_loaded_columns_match_sqlite(tmp_path_factory):
    loads, served = [], []

    @given(rows=rows_of, plan=loaded_steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        registry = _matches_sqlite(
            tmp_path_factory, "loaded", rows, plan, JUMPED_WARMUP
        )
        loads.append(registry.counter("vp_promotions_total").value)
        served.append(registry.counter("vp_served_total").value)

    run()
    # The column is about loads: some scans must have loaded ``s``,
    # and read it from the columnstore since.
    assert sum(loads) > 0 and sum(served) > 0


# ----------------------------------------------------------------------
# The streamed column: every statement read through a cursor on the
# producer lane, ``fetchmany(3)`` at a time; the cold read of each
# statement is closed after its first batch, so the warm repeats run
# over what a closed cursor harvested.
# ----------------------------------------------------------------------


def test_streamed_cursors_match_sqlite(tmp_path_factory, monkeypatch):
    scan_threads: list[str] = []
    scanned: list[bool] = []
    execute = RawScan.execute

    def spy(self):
        scan_threads.append(threading.current_thread().name)
        yield from execute(self)

    monkeypatch.setattr(RawScan, "execute", spy)

    def streamed(engine, sql, repeat):
        scan_threads.clear()
        got = []
        with engine.query_stream(sql) as cursor:
            while True:
                more = cursor.fetchmany(3)
                got.extend(more)
                if not more or repeat == 0:
                    break
            trace_id = cursor.trace_id
        trace = engine.telemetry.tracer.trace_dict(trace_id)
        if scan_threads:  # the plan scanned: on its producer thread
            assert trace["root"]["attrs"]["lane"] == "threaded", sql
            assert all(
                name.startswith("repro-cursor-") for name in scan_threads
            ), (sql, scan_threads)
        scanned.append(bool(scan_threads))
        return got, repeat != 0

    @given(rows=rows_of, plan=steps)
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan):
        _matches_sqlite(tmp_path_factory, "batch7", rows, plan, read=streamed)

    run()
    # The column is about the producer lane: some reads must have
    # scanned on it.
    assert any(scanned)


# ----------------------------------------------------------------------
# The templated column: each statement, then its shape again under a
# second draw of its literals (non-negative, so a redrawn number never
# meets the minus before it as ``--``).  The cache binds the new WHERE
# values into the first draw's template; a literal it must match
# (LIMIT, LIKE, a folded minus, ...) gets a template of its own.
# ----------------------------------------------------------------------


def _render(shape: str, values: list) -> str:
    marks = {mark: kind for kind, mark in SHAPE_MARKS.items()}
    pieces = shape.split("\x00")
    out = [pieces[0]]
    for piece, value in zip(pieces[1:], values):
        assert marks["\x00" + piece[0]] is type(value)
        if isinstance(value, str):
            out.append("'" + value.replace("'", "''") + "'")
        else:
            out.append(repr(value))
        out.append(piece[1:])
    return "".join(out)


def _redrawn(step, rng):
    ours, theirs, ordered = step
    shape, values = lift_literals(ours)
    drawn = []
    for value in values:
        if isinstance(value, str):
            drawn.append(rng.choice(WORDS))
        elif isinstance(value, float):
            drawn.append(rng.randint(0, 40) / 4)
        else:
            drawn.append(rng.randint(0, 9))
    return (
        _render(shape, drawn),
        _render(lift_literals(theirs)[0], drawn),
        ordered,
    )


def test_templated_statements_match_sqlite(tmp_path_factory):
    hits = []

    @given(rows=rows_of, plan=steps, rng=st.randoms(use_true_random=False))
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(rows, plan, rng):
        plan = [
            twin
            for kind, step in plan
            for twin in (
                [(kind, step), (kind, _redrawn(step, rng))]
                if kind == "query"
                else [(kind, step)]
            )
        ]
        registry = _matches_sqlite(tmp_path_factory, "vp_mv", rows, plan)
        hits.append(registry.counter("plan_cache_hits_total").value)

    run()
    # The column is about templates: repeated shapes must have hit.
    assert sum(hits) > 0


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
