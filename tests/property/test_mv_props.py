"""Property: MV-served answers are row-identical to the raw path.

For arbitrary tables, query shapes and fetch styles:

* an **exact** hit returns the same rows the raw aggregation would;
* a **partial** hit (wider MV re-aggregated down, including residual
  dim filters and AVG recomposed as SUM/COUNT) returns the same rows;
* under any sequence of external appends interleaved with exact hits,
  partial hits and queries the MV tier cannot serve, every answer
  equals a fresh engine's over the grown file — while no MV and no
  promoted column is ever invalidated or rebuilt: their watermarks
  advance over the appended rows instead.

Aggregate inputs are integers, so re-aggregated SUM/AVG arithmetic is
exact and comparison needs no tolerance.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.executor.result import batch_rows
from repro.rawio.writer import (
    append_csv_rows,
    append_jsonl_rows,
    write_csv,
    write_jsonl,
)

SCHEMA = TableSchema.from_pairs(
    [("g", "integer"), ("h", "integer"), ("v", "integer")]
)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(-99, 99)
    ),
    min_size=1,
    max_size=200,
)

#: The wide shape every example materializes first; each derived query
#: then exercises one rung of the match ladder.
WIDE = (
    "SELECT g, h, sum(v), count(*), count(v), min(v), max(v), avg(v) "
    "FROM t GROUP BY g, h"
)
DERIVED = [
    WIDE,  # exact hit
    "SELECT g, sum(v), count(*) FROM t GROUP BY g",  # subset dims
    "SELECT sum(v), count(*), avg(v) FROM t",  # global re-agg + AVG
    "SELECT g, min(v), max(v) FROM t WHERE h = 1 GROUP BY g",  # residual
    "SELECT h, count(v), avg(v) FROM t WHERE g = 2 GROUP BY h",
]


def build_config(mv_auto: bool = True, **overrides) -> PostgresRawConfig:
    return PostgresRawConfig(
        batch_size=16,
        stream_queue_batches=2,
        mv_auto=mv_auto,
        **overrides,
    )


def assert_raw_served(engine):
    """A reference engine answers from the raw scan: no MV served it."""
    counter = engine.telemetry.registry.counter
    assert counter("mv_hits_total").value == 0
    assert counter("mv_partial_hits_total").value == 0


def reference_rows(path, query):
    """Ground truth: a fresh default engine, which never captures an MV."""
    with PostgresRaw() as ref:
        ref.register_csv("t", path, SCHEMA)
        rows = sorted(ref.query(query).rows)
        assert_raw_served(ref)
        return rows


@settings(max_examples=25, deadline=None)
@given(
    rows=rows_strategy,
    query=st.sampled_from(DERIVED),
)
def test_mv_served_rows_equal_raw(tmp_path_factory, rows, query):
    tmp = tmp_path_factory.mktemp("mv_props")
    path = tmp / "t.csv"
    write_csv(path, rows, SCHEMA)

    expected = reference_rows(path, query)
    # mv_auto off: only the explicit build_mv below materializes, so
    # the derived queries must route through the *wide* MV.
    with PostgresRaw(build_config(mv_auto=False)) as engine:
        engine.register_csv("t", path, SCHEMA)
        raw_first = sorted(engine.query(query).rows)
        assert raw_first == expected

        # Materialize the wide shape, then the query must be MV-served.
        engine.build_mv(WIDE)
        decision = "exact" if query == WIDE else "partial"
        assert f"MVScan [{decision}" in engine.explain(query)
        assert sorted(engine.query(query).rows) == expected

        # The streamed path serves from the same plan.
        with engine.query_stream(query) as cursor:
            streamed = []
            for batch in cursor.batches():
                streamed.extend(batch_rows(batch, cursor.column_names))
        assert sorted(streamed) == expected


#: Rows for the append sequences: NULL keys and NULL arguments occur,
#: possibly for the first time in a tail.
nullable_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.integers(0, 2),
        st.one_of(st.none(), st.integers(-99, 99)),
    ),
    min_size=1,
    max_size=60,
)
AFTER_APPEND = DERIVED + [
    "SELECT g, v FROM t WHERE v > 0",  # no aggregate at all
    "SELECT h, count(DISTINCT v) FROM t GROUP BY h",  # MV-ineligible
]
#: A selective projection of ``g``: its repeats load it.
LOAD_G = "SELECT v, g FROM t WHERE v > 0"
FORMATS = {
    "csv": (write_csv, append_csv_rows, "register_csv"),
    "jsonl": (write_jsonl, append_jsonl_rows, "register_jsonl"),
}


@settings(max_examples=30, deadline=None)
@given(
    rows=nullable_rows,
    steps=st.lists(
        st.tuples(
            nullable_rows,
            st.lists(st.sampled_from(AFTER_APPEND), max_size=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
    fmt=st.sampled_from(sorted(FORMATS)),
)
def test_appends_advance_both_tiers_and_stay_correct(
    tmp_path_factory, rows, steps, fmt
):
    tmp = tmp_path_factory.mktemp("mv_append")
    path = tmp / f"t.{fmt}"
    write, append, register = FORMATS[fmt]
    write(path, rows, SCHEMA)

    def expected(query):
        with PostgresRaw() as ref:
            getattr(ref, register)("t", path, SCHEMA)
            rows = sorted(ref.query(query).rows, key=repr)
            assert_raw_served(ref)
            return rows

    config = build_config(
        mv_auto=False,
        memory_budget=8 << 20,
        vp_enabled=True,
        vp_dir=str(tmp / "vp"),
    )
    with PostgresRaw(config) as engine:
        getattr(engine, register)("t", path, SCHEMA)
        # Load ``g`` where the rows allow: mapped and converted for
        # survivors only, then jumped until its rent buys its load.
        for __ in range(4):
            got = sorted(engine.query(LOAD_G).rows, key=repr)
            assert got == expected(LOAD_G)
        engine.build_mv(WIDE)
        counter = engine.telemetry.registry.counter
        for tail, queries, drop_cache in steps:
            append(path, tail, SCHEMA)
            if drop_cache:
                # The loaded prefix and the map now serve what the
                # cache did.
                engine.table_state("t").cache.invalidate()
            for query in queries:
                got = sorted(engine.query(query).rows, key=repr)
                assert got == expected(query)
        # One more exact hit: whatever the sequence left lagging.
        assert sorted(engine.query(WIDE).rows, key=repr) == expected(WIDE)
        catalog = engine.service.mv.catalog
        assert catalog.builds == 1 and catalog.invalidations == 0
        assert counter("vp_invalidations_total").value == 0
        n_rows = len(rows) + sum(len(tail) for tail, __, __ in steps)
        (entry,) = engine.service.mv.stats()["entries"]
        assert entry["rows"] == n_rows and entry["lag_rows"] == 0
        (store,) = engine.service._collect_columnstores()
        for covered in store["rows"].values():
            assert covered <= n_rows


@settings(max_examples=10, deadline=None)
@given(rows=rows_strategy)
def test_eviction_and_drop_never_change_answers(tmp_path_factory, rows):
    """A budget too small for the map, the cache and two MVs keeps
    evicting; a dropped and re-registered table forgets its MVs.
    Answers never change."""
    tmp = tmp_path_factory.mktemp("mv_evict")
    path = tmp / "t.csv"
    write_csv(path, rows, SCHEMA)

    queries = DERIVED[1:3]
    expected = {q: reference_rows(path, q) for q in queries}
    # 4 KiB: captures of the wide shape (hundreds of bytes each, at
    # most 1 KiB) contend with map chunks and cache columns for room.
    config = build_config(memory_budget=4096)
    with PostgresRaw(config) as engine:
        engine.register_csv("t", path, SCHEMA)
        for __ in range(3):
            for q in queries:
                assert sorted(engine.query(q).rows) == expected[q]
        catalog = engine.service.mv.catalog
        governor = engine.service.governor
        assert governor.used_bytes <= governor.budget_bytes
        by_kind = governor.stats()["by_kind"]
        assert by_kind.get("mv", 0) == catalog.total_bytes()

        engine.drop_table("t")
        assert catalog.entry_count() == 0
        engine.register_csv("t", path, SCHEMA)
        for q in queries:
            assert sorted(engine.query(q).rows) == expected[q]
