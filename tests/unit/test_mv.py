"""Unit coverage of the adaptive materialized-aggregate cache.

Signature normalization and eligibility, the catalog's exact/partial
match ladder, governed eviction by benefit-per-byte, the analyzer's capture
decisions, the internal ``sum0`` aggregate and the EXPLAIN annotations.
"""

from __future__ import annotations

import pytest

from repro import PostgresRaw, PostgresRawConfig
from repro.batch import Batch, ColumnVector
from repro.catalog.schema import TableSchema
from repro.core.metrics import QueryMetrics
from repro.datatypes import DataType
from repro.errors import BudgetError, ServiceError
from repro.mv import (
    MaterializedAggregate,
    MVCatalog,
    MVRecipe,
    QuerySignature,
    WorkloadAnalyzer,
    extract_signature,
)
from repro.rawio.writer import write_csv
from repro.service import MemoryGovernor
from repro.sql.parser import parse_select
from repro.telemetry.registry import MetricsRegistry

SCHEMA = TableSchema.from_pairs(
    [("region", "text"), ("amount", "integer"), ("qty", "integer")]
)
ROWS = [(f"r{i % 4}", i, i % 7) for i in range(200)]


@pytest.fixture()
def engine(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    with PostgresRaw(
        PostgresRawConfig(mv_auto=True, mv_min_repeats=2)
    ) as eng:
        eng.register_csv("t", path, SCHEMA)
        yield eng


def sig_of(engine, sql):
    stmt = parse_select(sql)
    planner = engine.service._planner(QueryMetrics(), [], mining=False)
    return planner.mv_signature(stmt)


# ----------------------------------------------------------------------
# Signatures.
# ----------------------------------------------------------------------


class TestSignature:
    def test_alias_and_order_insensitive(self, engine):
        a = sig_of(
            engine,
            "SELECT region, sum(amount) AS s FROM t "
            "WHERE qty > 1 AND amount < 100 GROUP BY region",
        )
        b = sig_of(
            engine,
            "SELECT sum(amount), region FROM t AS x "
            "WHERE amount < 100 AND qty > 1 GROUP BY region",
        )
        assert a is not None and a == b

    def test_having_limit_order_excluded(self, engine):
        a = sig_of(
            engine, "SELECT region, count(*) FROM t GROUP BY region"
        )
        b = sig_of(
            engine,
            "SELECT region, count(*) FROM t GROUP BY region "
            "HAVING count(*) > 1 ORDER BY region LIMIT 2",
        )
        assert a == b

    def test_ineligible_shapes(self, engine):
        for sql in (
            "SELECT region FROM t",  # no aggregate
            "SELECT * FROM t",  # star
            "SELECT count(DISTINCT region) FROM t",  # distinct agg
        ):
            assert sig_of(engine, sql) is None

    def test_count_star_key(self, engine):
        sig = sig_of(engine, "SELECT count(*) FROM t")
        assert sig.aggs == (("count", "*"),)
        assert sig.dims == ()

    def test_extract_requires_resolution_free_star(self):
        stmt = parse_select("SELECT count(*), sum(amount) FROM t")
        sig = extract_signature(stmt, "t")
        assert sig is not None
        assert ("sum", "amount") in sig.aggs


# ----------------------------------------------------------------------
# Catalog matching ladder.
# ----------------------------------------------------------------------


def make_entry(
    mv_id, sig, columns, dim_types=(), benefit=1.0, nbytes=100, rows=10
):
    cols = {}
    types = {}
    for dim, dtype in dim_types:
        cols[dim] = ColumnVector.from_pylist(dtype, ["x"])
        types[dim] = dtype
    for key, name in columns.items():
        cols[name] = ColumnVector.from_pylist(DataType.INTEGER, [1])
        types[name] = DataType.INTEGER
    return MaterializedAggregate(
        mv_id=mv_id,
        signature=sig,
        dims=sig.dims,
        columns=columns,
        batch=Batch(cols),
        types=types,
        nbytes=nbytes,
        generation=0,
        rows=rows,
        recipe=MVRecipe((), (), ()),
        benefit_seconds=benefit,
        build_seconds=0.0,
        created_unix=0.0,
    )


def wide_sig():
    return QuerySignature(
        table="t",
        dims=("city", "region"),
        filters=(),
        aggs=(("count", "*"), ("sum", "amount")),
        filter_columns=(),
    )


class TestCatalogMatch:
    def setup_method(self):
        self.catalog = MVCatalog(MetricsRegistry(), MemoryGovernor(10_000))
        self.wide = wide_sig()
        self.entry = make_entry(
            1,
            self.wide,
            {("count", "*"): "count:*", ("sum", "amount"): "sum:amount"},
            dim_types=[
                ("city", DataType.TEXT),
                ("region", DataType.TEXT),
            ],
        )
        assert self.catalog.install(self.entry)

    def test_exact_match(self):
        match = self.catalog.match(self.wide)
        assert match is not None and match.kind == "exact"

    def test_partial_subset_dims(self):
        narrower = QuerySignature(
            table="t",
            dims=("region",),
            filters=(),
            aggs=(("sum", "amount"),),
            filter_columns=(),
        )
        match = self.catalog.match(narrower)
        assert match is not None and match.kind == "partial"

    def test_partial_residual_filter_on_dim(self):
        filtered = QuerySignature(
            table="t",
            dims=("region",),
            filters=("(city = 'x')",),
            aggs=(("count", "*"),),
            filter_columns=((("(city = 'x')"), ("city",)),),
        )
        match = self.catalog.match(filtered)
        assert match is not None and match.kind == "partial"
        assert match.residual_filters == ("(city = 'x')",)

    def test_no_match_filter_on_non_dim(self):
        filtered = QuerySignature(
            table="t",
            dims=("region",),
            filters=("(amount > 1)",),
            aggs=(("count", "*"),),
            filter_columns=((("(amount > 1)"), ("amount",)),),
        )
        assert self.catalog.match(filtered) is None

    def test_no_match_superset_dims(self):
        wider = QuerySignature(
            table="t",
            dims=("city", "region", "zip"),
            filters=(),
            aggs=(("count", "*"),),
            filter_columns=(),
        )
        assert self.catalog.match(wider) is None

    def test_no_match_missing_aggregate(self):
        other = QuerySignature(
            table="t",
            dims=("region",),
            filters=(),
            aggs=(("min", "amount"),),
            filter_columns=(),
        )
        assert self.catalog.match(other) is None

    def test_avg_needs_both_components(self):
        avg = QuerySignature(
            table="t",
            dims=("region",),
            filters=(),
            aggs=(("avg", "amount"),),
            filter_columns=(),
        )
        assert self.catalog.match(avg) is None  # no count/sum of amount
        entry = make_entry(
            2,
            wide_sig(),
            {
                ("sum", "amount"): "sum:amount",
                ("count", "amount"): "count:amount",
            },
            dim_types=[
                ("city", DataType.TEXT),
                ("region", DataType.TEXT),
            ],
        )
        assert self.catalog.install(entry)
        match = self.catalog.match(avg)
        assert match is not None and match.kind == "partial"

    def test_invalidate_and_drop(self):
        assert self.catalog.invalidate_table("t") == 1
        assert self.catalog.match(self.wide) is None
        self.catalog.drop_table("t")
        assert self.catalog.entry_count() == 0


class TestGovernedEviction:
    def test_evicts_lowest_benefit_per_byte(self):
        catalog = MVCatalog(MetricsRegistry(), MemoryGovernor(250))
        base = wide_sig()
        cheap = QuerySignature(
            "t", ("a",), (), (("count", "*"),), ()
        )
        rich = QuerySignature(
            "t", ("b",), (), (("count", "*"),), ()
        )
        cols = {("count", "*"): "count:*"}
        low = make_entry(1, cheap, dict(cols), benefit=0.001, nbytes=100)
        high = make_entry(2, rich, dict(cols), benefit=10.0, nbytes=100)
        assert catalog.install(low)
        assert catalog.install(high)
        new = make_entry(3, base, dict(cols), benefit=1.0, nbytes=100)
        assert catalog.install(new)
        resident = {e.mv_id for e in catalog.entries()}
        assert resident == {2, 3}  # the low-benefit entry was evicted
        assert catalog.evictions == 1
        assert catalog.total_bytes() <= 250

    def test_oversized_entry_rejected(self):
        catalog = MVCatalog(
            MetricsRegistry(), MemoryGovernor(10_000), max_entry_bytes=50
        )
        entry = make_entry(
            1, wide_sig(), {("count", "*"): "count:*"}, nbytes=100
        )
        assert not catalog.install(entry)
        assert catalog.rejected == 1
        assert catalog.entry_count() == 0

    def test_one_capture_takes_at_most_a_quarter_of_the_budget(self):
        from repro.mv.runtime import MV_MAX_ENTRY_FRACTION, MVRuntime

        governor = MemoryGovernor(1000)
        runtime = MVRuntime(
            PostgresRawConfig(memory_budget=1000), MetricsRegistry(), governor
        )
        catalog = runtime.catalog
        assert catalog.max_entry_bytes == int(1000 * MV_MAX_ENTRY_FRACTION)
        cols = {("count", "*"): "count:*"}
        # The governor has room for it, the per-capture cap does not.
        assert not catalog.install(
            make_entry(1, wide_sig(), dict(cols), nbytes=300)
        )
        assert catalog.install(make_entry(2, wide_sig(), dict(cols)))
        assert governor.used_bytes == 100

    def test_replaces_same_signature(self):
        catalog = MVCatalog(MetricsRegistry(), MemoryGovernor(10_000))
        sig = wide_sig()
        cols = {("count", "*"): "count:*"}
        assert catalog.install(make_entry(1, sig, dict(cols)))
        assert catalog.install(make_entry(2, sig, dict(cols)))
        assert [e.mv_id for e in catalog.entries()] == [2]


# ----------------------------------------------------------------------
# Analyzer.
# ----------------------------------------------------------------------


class TestAnalyzer:
    def test_auto_capture_after_min_repeats(self):
        analyzer = WorkloadAnalyzer(min_repeats=3, auto=True)
        sig = wide_sig()
        for expected in (False, False, True):
            analyzer.note_planned(sig)
            assert analyzer.should_capture(sig, False) is expected
        assert analyzer.should_capture(sig, True) is False

    def test_auto_off_never_captures(self):
        analyzer = WorkloadAnalyzer(min_repeats=1, auto=False)
        sig = wide_sig()
        analyzer.note_planned(sig)
        assert analyzer.should_capture(sig, False) is False

    def test_force_overrides_auto_off(self):
        analyzer = WorkloadAnalyzer(min_repeats=99, auto=False)
        sig = wide_sig()
        analyzer.force(sig)
        assert analyzer.is_forced(sig)
        assert analyzer.should_capture(sig, False) is True
        analyzer.unforce(sig)
        assert not analyzer.is_forced(sig)

    def test_suggestions_ranked_by_benefit_per_byte(self):
        analyzer = WorkloadAnalyzer(min_repeats=1, auto=True)
        hot = QuerySignature("t", ("a",), (), (("count", "*"),), ())
        cold = QuerySignature("t", ("b",), (), (("count", "*"),), ())
        for __ in range(5):
            analyzer.note_planned(hot)
            analyzer.note_completed(hot, None, 2.0)
        analyzer.note_planned(cold)
        analyzer.note_completed(cold, None, 0.001)
        rows = analyzer.suggestions()
        assert rows[0]["signature"] == hot.label()
        assert rows[0]["benefit_per_byte"] > rows[1]["benefit_per_byte"]

    def test_served_and_raw_buckets(self):
        analyzer = WorkloadAnalyzer(min_repeats=1, auto=True)
        sig = wide_sig()
        analyzer.note_completed(sig, None, 4.0)
        analyzer.note_completed(sig, "exact", 0.5)
        assert analyzer.observed_seconds(sig) == 4.0
        row = analyzer.suggestions()[0]
        assert row["raw_runs"] == 1 and row["served_runs"] == 1


# ----------------------------------------------------------------------
# sum0 + EXPLAIN + config knobs.
# ----------------------------------------------------------------------


def test_sum0_zero_over_empty_input():
    from repro.executor.operators import (
        AggregateSpec,
        BatchSource,
        HashAggregate,
    )
    from repro.sql.ast import ColumnRef

    def sum0(items):
        batch = Batch({"v": ColumnVector.from_pylist(DataType.INTEGER, items)})
        source = BatchSource(lambda: iter([batch]), {"v": DataType.INTEGER})
        spec = AggregateSpec("s", "sum0", ColumnRef("v"))
        (out,) = HashAggregate(source, [], [spec]).execute()
        return out.column("s").to_pylist()

    assert sum0([]) == [0]
    assert sum0([None, None]) == [0]
    assert sum0([3, None, 4]) == [7]


def test_explain_annotates_mv_decisions(engine):
    sql = "SELECT region, sum(amount) FROM t GROUP BY region"
    assert "raw fallback" in engine.explain(sql)
    engine.query(sql)
    engine.query(sql)  # second plan triggers auto capture
    text = engine.explain(sql)
    assert "MVScan [exact]" in text
    assert "raw fallback" not in text
    narrower = "SELECT sum(amount) FROM t"
    assert "MVScan [partial: re-agg over <global>]" in engine.explain(
        narrower
    )


def test_explain_does_not_mine(engine):
    sql = "SELECT region, min(qty) FROM t GROUP BY region"
    for __ in range(5):
        engine.explain(sql)
    engine.query(sql)
    engine.query(sql)
    # EXPLAINs did not count as repeats: 2 queries < would-be 7.
    assert engine.service.mv.analyzer.note_planned(sig_of(engine, sql)) == 3


def test_mv_config_validation():
    with pytest.raises(BudgetError):
        PostgresRawConfig(mv_min_repeats=0)


def test_build_mv_rejects_ineligible(engine):
    with pytest.raises(ServiceError):
        engine.build_mv("SELECT region FROM t")


def test_mv_disabled_has_no_runtime(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    with PostgresRaw(PostgresRawConfig(mv_enabled=False)) as eng:
        eng.register_csv("t", path, SCHEMA)
        assert eng.service.mv is None
        with pytest.raises(ServiceError):
            eng.build_mv("SELECT count(*) FROM t")
        sql = "SELECT region, count(*) FROM t GROUP BY region"
        assert "MVScan" not in eng.explain(sql)
        assert "-- mv:" not in eng.explain(sql)


def test_fast_aggregate_still_feeds_the_mv_tier(tmp_path):
    # MVCapture scores an entry by the seconds its HashAggregate child
    # took, and the columnar aggregate made those ~10x fewer.  With the
    # default mv_min_repeats and a budget that does not bind, every
    # captured aggregate must still be admitted with a positive
    # benefit, and then be served — a faster operator may not quietly
    # switch the MV tier off.
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    config = PostgresRawConfig(mv_auto=True, memory_budget=256 << 20)
    queries = [
        "SELECT region, count(*), sum(amount) FROM t GROUP BY region",
        "SELECT qty, min(amount), avg(amount) FROM t GROUP BY qty",
        "SELECT count(*), sum(qty) FROM t WHERE amount >= 0",
    ]
    with PostgresRaw(config) as eng:
        eng.register_csv("t", path, SCHEMA)
        raw = [sorted(eng.query(sql), key=repr) for sql in queries]
        for __ in range(config.mv_min_repeats):
            for sql in queries:
                eng.query(sql)
        stats = eng.service.mv.stats()
        assert stats["builds"] == len(queries) == stats["mvs"]
        assert stats["rejected"] == 0 and stats["evictions"] == 0
        assert all(e["benefit_seconds"] > 0 for e in stats["entries"])
        for sql, expected in zip(queries, raw):
            assert "MVScan [exact]" in eng.explain(sql)
            assert sorted(eng.query(sql), key=repr) == expected
        assert eng.service.mv.stats()["hits"] >= stats["hits"] + len(queries)
