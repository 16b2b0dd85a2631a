"""Unit coverage of the adaptive materialized-aggregate cache.

Signature normalization and eligibility, the catalog's exact/partial
match ladder, governed eviction by benefit-per-byte, the analyzer's capture
decisions, the internal ``sum0`` aggregate and the EXPLAIN annotations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from governed import cache_bytes, count_signature, governed_cache, mv_entry
from repro import PostgresRaw, PostgresRawConfig
from repro.batch import Batch, ColumnVector
from repro.catalog.schema import TableSchema
from repro.core.metrics import QueryMetrics
from repro.datatypes import DataType
from repro.errors import ExecutionError, ServiceError
from repro.mv import (
    MaterializedAggregate,
    MVCatalog,
    MVRecipe,
    QuerySignature,
    WorkloadAnalyzer,
    extract_signature,
)
from repro.mv.analyzer import DEFAULT_RESULT_BYTES, MAX_SIGNATURES
from repro.mv.runtime import MVRuntime
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
    with PostgresRaw(PostgresRawConfig(mv_auto=True)) as eng:
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
        catalog = MVCatalog(MetricsRegistry(), MemoryGovernor(50))
        entry = make_entry(
            1, wide_sig(), {("count", "*"): "count:*"}, nbytes=100
        )
        assert catalog.price(entry.signature, entry.nbytes) == math.inf
        assert not catalog.install(entry)
        assert catalog.rejected == 1
        assert catalog.entry_count() == 0

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
    def test_auto_capture_once_rent_reaches_price(self):
        priced = []

        def price(sig, nbytes):
            priced.append(nbytes)
            return 1.0

        analyzer = WorkloadAnalyzer(auto=True, price=price)
        sig = wide_sig()
        analyzer.note_planned(sig)
        # No raw run paid rent yet: no governor walk either.
        assert analyzer.should_capture(sig, False) is False
        assert priced == []
        analyzer.note_completed(sig, None, 0.6)
        assert analyzer.should_capture(sig, False) is False  # 0.6 < 1
        analyzer.note_completed(sig, "exact", 5.0)  # served: no rent
        assert analyzer.should_capture(sig, False) is False
        analyzer.note_completed(sig, None, 0.6)
        assert analyzer.should_capture(sig, False) is True
        assert priced == [DEFAULT_RESULT_BYTES] * 3
        assert analyzer.should_capture(sig, True) is False
        # A refusal starts the rent over, and the refused run pays none
        # when it completes; so does the table's rewrite.
        analyzer.refuse(sig)
        analyzer.note_completed(sig, None, 2.0)
        assert analyzer.should_capture(sig, False) is False
        analyzer.note_completed(sig, None, 2.0)
        assert analyzer.should_capture(sig, False) is True
        analyzer.reset_rent(sig.table)
        assert analyzer.should_capture(sig, False) is False

    def test_an_unaffordable_capture_is_never_bought(self):
        analyzer = WorkloadAnalyzer(
            auto=True, price=lambda sig, nbytes: math.inf
        )
        sig = wide_sig()
        for __ in range(5):
            analyzer.note_completed(sig, None, 100.0)
            assert analyzer.should_capture(sig, False) is False
        (row,) = analyzer.suggestions()
        assert row["rent_s"] == 500.0 and row["price_s"] == math.inf
        assert row["status"] == "cold"

    def test_auto_off_never_captures(self):
        analyzer = WorkloadAnalyzer(auto=False)
        sig = wide_sig()
        analyzer.note_planned(sig)
        analyzer.note_completed(sig, None, 1.0)
        assert analyzer.should_capture(sig, False) is False

    def test_force_overrides_auto_off(self):
        analyzer = WorkloadAnalyzer(auto=False)
        sig = wide_sig()
        analyzer.force(sig)
        assert analyzer.is_forced(sig)
        assert analyzer.should_capture(sig, False) is True
        analyzer.unforce(sig)
        assert not analyzer.is_forced(sig)

    def test_suggestions_ranked_by_benefit_per_byte(self):
        analyzer = WorkloadAnalyzer(auto=True)
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

    def test_signatures_are_bounded_least_recently_planned_first(self):
        def sig(i):
            return QuerySignature("t", (f"c{i}",), (), (("count", "*"),), ())

        forced, owed, hot, held = sig(0), sig(1), sig(2), sig(-1)
        analyzer = WorkloadAnalyzer(auto=True, resident=lambda s: s == held)
        analyzer.note_planned(held)
        analyzer.force(forced)
        analyzer.note_planned(forced)
        analyzer.note_planned(owed)
        analyzer.refuse(owed)
        analyzer.note_planned(hot)
        for i in range(3, 1000):
            analyzer.note_planned(sig(i))
            if i % 100 == 0:
                analyzer.note_planned(hot)
        assert analyzer.signature_count() == MAX_SIGNATURES
        # Neither forced, owed a run nor resident: kept only while
        # recently planned.
        kept = analyzer._stats
        assert forced in kept and owed in kept and held in kept
        assert hot in kept
        assert kept[hot].repeats == 10
        assert sig(3) not in kept and sig(999) in kept

    def test_served_and_raw_buckets(self):
        analyzer = WorkloadAnalyzer(auto=True)
        sig = wide_sig()
        analyzer.note_completed(sig, None, 4.0)
        analyzer.note_completed(sig, "exact", 0.5)
        assert analyzer.observed_seconds(sig) == 4.0
        row = analyzer.suggestions()[0]
        assert row["raw_runs"] == 1 and row["served_runs"] == 1


def int_vector(n_rows: int) -> ColumnVector:
    return ColumnVector.from_values(
        DataType.INTEGER, np.arange(n_rows, dtype=np.int64)
    )


class TestRentOrBuy:
    """Under a binding budget a capture is bought once the raw seconds
    its signature paid reach the governor's price, and evicts what is
    cheapest to lose at that moment."""

    def test_capture_bought_at_the_price_of_the_sparsest_victims(self):
        governor, cache, runtime, entry_bytes = self.full_budget()
        analyzer = runtime.analyzer
        sig = count_signature("g")
        # No statistics: the default estimate, which one entry covers.
        assert analyzer.est_bytes(sig) == DEFAULT_RESULT_BYTES
        assert DEFAULT_RESULT_BYTES <= entry_bytes

        def status():
            (row,) = runtime.stats()["suggestions"]
            return row["rent_s"], row["price_s"], row["status"]

        analyzer.note_completed(sig, None, 0.15)
        assert status() == (0.15, pytest.approx(0.2), "cold")
        assert not runtime.should_capture(sig)
        # Attr 0 turns dense: the sparsest victim, and the price, move.
        cache.peek(0).benefit_seconds = 9.0
        analyzer.note_completed(sig, None, 0.1)
        assert status() == (0.25, pytest.approx(0.4), "cold")
        assert not runtime.should_capture(sig)
        analyzer.note_completed(sig, None, 0.2)
        assert status()[2] == "candidate"
        assert runtime.should_capture(sig)
        assert governor.evictions == 0  # priced, nothing evicted
        assert runtime.catalog.install(
            mv_entry(sig, 1, nbytes=DEFAULT_RESULT_BYTES)
        )
        assert cache.peek(1) is None  # 0.4 s: the sparsest now
        assert all(cache.peek(a) is not None for a in (0, 2, 3))
        assert governor.evictions == 1

    def test_a_refused_capture_starts_the_rent_over(self, monkeypatch):
        governor = MemoryGovernor(64 * 1024)
        config = PostgresRawConfig(
            mv_auto=True, memory_budget=governor.budget_bytes
        )
        runtime = MVRuntime(config, MetricsRegistry(), governor)
        sig = QuerySignature("t", (), (), (("count", "*"),), ())
        runtime.analyzer.note_completed(sig, None, 1.0)
        assert runtime.should_capture(sig)
        monkeypatch.setattr(
            runtime.catalog, "install", lambda entry, bought: False
        )
        entry = count_capture(runtime, sig)
        batch = Batch(
            {"count:*": ColumnVector.from_pylist(DataType.INTEGER, [7])}
        )
        assert not runtime.install(entry, batch, 1.0, 7, 0)
        assert not runtime.should_capture(sig)
        # The refused run completes after its install: it pays nothing.
        runtime.observe_completion(sig, None, 1.0)
        assert not runtime.should_capture(sig)
        (row,) = runtime.stats()["suggestions"]
        assert row["rent_s"] == 0 and row["status"] == "cold"
        runtime.observe_completion(sig, None, 1.0)  # the next run pays
        assert runtime.should_capture(sig)

    def test_real_bytes_priced_above_the_rent_are_refused(self):
        """The plan buys the estimate; the install prices the real
        bytes, and their rent must cover them too."""
        governor, cache, runtime, entry_bytes = self.full_budget()
        sig = QuerySignature("t", (), (), (("count", "*"),), ())
        runtime.analyzer.note_completed(sig, None, 0.3)
        assert runtime.should_capture(sig)  # the estimate evicts 0.2 s
        entry = count_capture(runtime, sig)
        rows = entry_bytes // 8
        counts = int_vector(rows)
        # ... the real result evicts two entries, 0.2 s + 0.4 s.
        assert entry_bytes < counts.nbytes() <= 2 * entry_bytes
        assert runtime.catalog.price(sig, counts.nbytes()) == (
            pytest.approx(0.6)
        )
        batch = Batch({"count:*": counts})
        assert not runtime.install(entry, batch, 1.0, rows, 0)
        assert runtime.catalog.entry_count() == 0
        assert runtime.stats()["rejected"] == 1
        assert governor.evictions == 0
        assert all(cache.peek(a) is not None for a in range(4))
        assert not runtime.should_capture(sig)

    def test_growth_is_bought_with_the_entry_rent(self):
        governor, cache, runtime, entry_bytes = self.full_budget()
        sig = QuerySignature("t", (), (), (("count", "*"),), ())
        runtime.analyzer.note_completed(sig, None, 0.3)
        small = Batch({"count:*": int_vector(8)})
        assert runtime.install(count_capture(runtime, sig), small, 9.0, 8, 0)
        assert cache.peek(0) is None  # evicted for it: 0.2 s <= 0.3 s
        entry = runtime.find(sig)
        grown = Batch({"count:*": int_vector(entry_bytes // 8)})
        # Growing evicts 0.4 s more than the rent that bought it.
        assert not runtime.advance(entry, 8, grown, 16, 0)
        assert entry.rows == 8 and cache.peek(1) is not None
        runtime.analyzer.note_completed(sig, None, 0.2)
        assert runtime.advance(entry, 8, grown, 16, 0)
        assert entry.rows == 16 and cache.peek(1) is None

    @staticmethod
    def full_budget():
        """A governor filled by four cache entries of 0.2 s, 0.4 s, 3 s
        and 5 s, and an MV runtime under it."""
        entry_bytes = cache_bytes(int_vector(512))
        governor = MemoryGovernor(4 * entry_bytes)
        cache = governed_cache(governor)
        for attr, benefit in enumerate((0.2, 0.4, 3.0, 5.0)):
            assert cache.put(attr, int_vector(512), benefit_seconds=benefit)
        config = PostgresRawConfig(
            mv_auto=True, memory_budget=governor.budget_bytes
        )
        runtime = MVRuntime(config, MetricsRegistry(), governor)
        return governor, cache, runtime, entry_bytes


def count_capture(runtime, sig):
    """The new entry a capture of ``SELECT count(*) FROM t`` folds
    into (``sig`` is its signature; its rent must cover it)."""
    match = runtime.capture(parse_select("SELECT count(*) FROM t"), sig)
    assert match.kind == "exact" and match.lagging and match.rows == 0
    assert match.entry.mv_id is None and match.entry.batch is None
    assert match.entry.columns == {("count", "*"): "count:*"}
    return match.entry


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


def test_build_mv_rejects_ineligible(engine):
    with pytest.raises(ServiceError):
        engine.build_mv("SELECT region FROM t")


def test_default_engine_builds_only_on_request(tmp_path):
    # Without mv_auto the runtime is there but never captures on its
    # own; an explicit build_mv is what puts an entry in the tier.
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    sql = "SELECT region, count(*) FROM t GROUP BY region"
    with PostgresRaw(PostgresRawConfig()) as eng:
        eng.register_csv("t", path, SCHEMA)
        assert isinstance(eng.service.mv, MVRuntime)
        raw = sorted(eng.query(sql))
        for __ in range(3):
            assert sorted(eng.query(sql)) == raw
        assert eng.service.mv.stats()["mvs"] == 0
        assert "MVScan" not in eng.explain(sql)
        eng.build_mv(sql)
        assert eng.service.mv.stats()["mvs"] == 1
        assert "MVScan [exact]" in eng.explain(sql)
        assert sorted(eng.query(sql)) == raw


def test_default_engine_drop_table_forgets_built_mv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    sql = "SELECT region, sum(amount) FROM t GROUP BY region"
    with PostgresRaw(PostgresRawConfig()) as eng:
        eng.register_csv("t", path, SCHEMA)
        eng.build_mv(sql)
        assert eng.service.mv.stats()["mvs"] == 1
        eng.drop_table("t")
        assert eng.service.mv.stats()["mvs"] == 0
        eng.register_csv("t", path, SCHEMA)
        assert "MVScan" not in eng.explain(sql)


def test_fast_aggregate_still_feeds_the_mv_tier(tmp_path):
    # A capture scores an entry by the seconds its fold (scan + recipe
    # aggregate) took, and the columnar aggregate made those ~10x
    # fewer.  Under a budget that does not bind, every captured
    # aggregate must still be admitted with a positive benefit, and
    # then be served — a faster operator may not quietly switch the MV
    # tier off.
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
        for sql in queries:
            eng.query(sql)  # rent paid, nothing to evict: captured
        stats = eng.service.mv.stats()
        assert stats["builds"] == len(queries) == stats["mvs"]
        assert stats["rejected"] == 0 and stats["evictions"] == 0
        assert all(e["benefit_seconds"] > 0 for e in stats["entries"])
        for sql, expected in zip(queries, raw):
            assert "MVScan [exact]" in eng.explain(sql)
            assert sorted(eng.query(sql), key=repr) == expected
        assert eng.service.mv.stats()["hits"] >= stats["hits"] + len(queries)


def test_captured_integer_avg_past_int64_answers_like_raw(tmp_path):
    # An INTEGER AVG travels as SUM and COUNT partials.  Three rows of
    # 2**62 sum past int64: the raw AVG divides the exact sum, so a
    # capture must too, every run, while SUM still raises.
    schema = TableSchema.from_pairs([("g", "integer"), ("v", "integer")])
    path = tmp_path / "big.csv"
    write_csv(path, [(1, 2**62)] * 3, schema)
    avg = "SELECT g, avg(v) FROM t GROUP BY g"
    with PostgresRaw() as raw:
        raw.register_csv("t", path, schema)
        expected = repr(raw.query(avg).rows)
    assert expected == "[(1, 4.611686018427388e+18)]"
    with PostgresRaw(PostgresRawConfig(mv_auto=True)) as eng:
        eng.register_csv("t", path, schema)
        plans = []
        for __ in range(4):
            plans.append(eng.explain(avg))
            assert repr(eng.query(avg).rows) == expected
        assert any("MVCapture" in plan for plan in plans)
        # The exact sum cannot be stored: the capture is refused.
        assert eng.service.mv.stats()["mvs"] == 0
        for __ in range(3):
            with pytest.raises(ExecutionError, match="SUM result is out of"):
                eng.query("SELECT g, sum(v) FROM t GROUP BY g")


def test_partial_hit_integer_avg_past_int64_answers_like_raw(tmp_path):
    # Each group's sum fits int64 and is captured; re-aggregated to one
    # group it does not: the AVG divides the exact sum, the SUM raises.
    schema = TableSchema.from_pairs([("g", "integer"), ("v", "integer")])
    path = tmp_path / "big.csv"
    write_csv(path, [(g, 2**62) for g in range(3)], schema)
    avg = "SELECT avg(v) FROM t"
    with PostgresRaw() as raw:
        raw.register_csv("t", path, schema)
        expected = repr(raw.query(avg).rows)
    with PostgresRaw(PostgresRawConfig(mv_auto=True)) as eng:
        eng.register_csv("t", path, schema)
        for __ in range(3):
            eng.query("SELECT g, avg(v) FROM t GROUP BY g")
        assert eng.service.mv.stats()["mvs"] == 1
        assert "MVScan [partial" in eng.explain(avg)
        assert repr(eng.query(avg).rows) == expected
        with pytest.raises(ExecutionError, match="SUM result is out of"):
            eng.query("SELECT sum(v) FROM t")
