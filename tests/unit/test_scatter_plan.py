"""The scatter planner's routing decisions and merge algebra.

Pure planning tests (no servers, no engines): which statements route
to one shard, which fan out, what SQL the shards receive, and how the
client-side merge recombines synthetic shard answers.
"""

from __future__ import annotations

import pytest

from repro import DataType, PartitionSpec
from repro.errors import ExecutionError, PlanningError, ShardingError
from repro.sharding import ScatterPlanner, ShardResult, gather
from repro.sharding.partition import shard_of

SPEC = PartitionSpec("id", "hash", 4)


@pytest.fixture
def planner():
    return ScatterPlanner({"t": SPEC}, 4)


# ----------------------------------------------------------------------
# Routing decisions.
# ----------------------------------------------------------------------


def test_single_shard_routes_everything_verbatim():
    planner = ScatterPlanner({"t": PartitionSpec("id", "hash", 1)}, 1)
    for sql in (
        "SELECT * FROM t",
        "SELECT COUNT(*) FROM t GROUP BY id",
        "this is not even sql",  # not parsed: forwarded verbatim
    ):
        plan = planner.plan(sql)
        assert plan.is_routed
        assert plan.target == 0
        assert plan.shard_sql == sql
        assert plan.route_reason == "single shard"


def test_point_equality_routes_to_owner(planner):
    plan = planner.plan("SELECT * FROM t WHERE id = 17 AND x > 2")
    assert plan.is_routed
    assert plan.target == shard_of(17, SPEC)
    assert "id" in plan.route_reason
    assert plan.shard_sql == "SELECT * FROM t WHERE id = 17 AND x > 2"


def test_reversed_equality_routes(planner):
    plan = planner.plan("SELECT * FROM t WHERE 17 = id")
    assert plan.is_routed
    assert plan.target == shard_of(17, SPEC)


def test_in_list_routes_only_when_one_shard_owns_all(planner):
    values = [17, 170, 1700, 17000, 53, 8]
    same = [v for v in values if shard_of(v, SPEC) == shard_of(17, SPEC)]
    if len(same) >= 2:
        sql = f"SELECT * FROM t WHERE id IN ({same[0]}, {same[1]})"
        assert planner.plan(sql).is_routed
    spread = sorted({shard_of(v, SPEC) for v in values})
    assert len(spread) > 1  # sanity: the probe values do spread
    sql = "SELECT * FROM t WHERE id IN (%s)" % ", ".join(
        str(v) for v in values
    )
    assert not planner.plan(sql).is_routed


def test_null_and_inequality_do_not_route(planner):
    assert not planner.plan("SELECT * FROM t WHERE id = NULL").is_routed
    assert not planner.plan("SELECT * FROM t WHERE id > 17").is_routed
    assert not planner.plan(
        "SELECT * FROM t WHERE id = 1 OR id = 9999"
    ).is_routed


def test_no_from_and_unknown_table_route_to_shard_zero(planner):
    plan = planner.plan("SELECT 1 + 1")
    assert plan.is_routed and plan.target == 0
    plan = planner.plan("SELECT * FROM other")
    assert plan.is_routed and plan.target == 0
    assert plan.route_reason == "unpartitioned table"


def test_joins_are_rejected(planner):
    with pytest.raises(ShardingError, match="join"):
        planner.plan("SELECT * FROM t JOIN t AS u ON t.id = u.id")


# ----------------------------------------------------------------------
# Scatter + re-aggregate plans.
# ----------------------------------------------------------------------


def test_aggregate_shard_sql_asks_for_partials(planner):
    plan = planner.plan(
        "SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM t "
        "WHERE v > 0 GROUP BY g"
    )
    assert plan.mode == "scatter_agg"
    sql = plan.shard_sql.lower()
    assert "__d0" in sql  # the group key, named for the wire
    assert "count(*)" in sql and "sum(" in sql
    assert "where" in sql and "group by" in sql


def test_avg_decomposes_into_sum_and_count(planner):
    plan = planner.plan("SELECT AVG(v) AS a FROM t")
    sql = plan.shard_sql.lower()
    assert "avg(" not in sql  # AVG never crosses the wire
    assert "sum(" in sql and "count(" in sql


def test_distinct_aggregate_is_rejected(planner):
    with pytest.raises(ShardingError, match="DISTINCT"):
        planner.plan("SELECT COUNT(DISTINCT g) FROM t")


def test_star_with_group_by_is_rejected(planner):
    with pytest.raises(PlanningError, match=r"\*"):
        planner.plan("SELECT * FROM t GROUP BY g")


def test_ungrouped_column_is_rejected(planner):
    with pytest.raises(PlanningError, match="GROUP BY"):
        planner.plan("SELECT v, COUNT(*) FROM t GROUP BY g")


def test_count_partials_merge_by_summing(planner):
    plan = planner.plan("SELECT COUNT(*) AS n, SUM(v) AS s FROM t")
    results = [
        ShardResult(
            ["__c0", "__c1"],
            [DataType.INTEGER, DataType.INTEGER],
            [(count, total)],
        )
        for count, total in [(3, 30), (0, None), (5, 12), (2, -2)]
    ]
    merged = plan.merge(results)
    assert merged.columns == ["n", "s"]
    assert list(merged.rows()) == [(10, 40)]


def test_grouped_merge_re_aggregates_across_shards(planner):
    plan = planner.plan(
        "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g "
        "ORDER BY g"
    )
    types = [DataType.TEXT, DataType.INTEGER, DataType.INTEGER]
    results = [
        ShardResult(
            ["__d0", "__c0", "__c1"], types, [("a", 1, 5), ("b", 2, 2)]
        ),
        ShardResult(["__d0", "__c0", "__c1"], types, [("a", 0, 9)]),
    ]
    merged = plan.merge(results)
    assert merged.columns == ["g", "lo", "hi"]
    assert list(merged.rows()) == [("a", 0, 9), ("b", 2, 2)]


def test_avg_partials_past_int64_merge_exactly(planner):
    # Each shard's SUM fits int64, their total does not: the AVG
    # divides the exact total, as one engine's AVG does; SUM raises.
    types = [DataType.INTEGER, DataType.INTEGER]
    results = [
        ShardResult(["__c0", "__c1"], types, [(2**62, 1)]) for __ in range(3)
    ]
    plan = planner.plan("SELECT AVG(v) AS m FROM t")
    assert list(plan.merge(results).rows()) == [(2**62 * 3 / 3,)]
    plan = planner.plan("SELECT SUM(v) AS s, AVG(v) AS m FROM t")
    with pytest.raises(ExecutionError, match="out of INTEGER range"):
        list(plan.merge(results).rows())


def test_merge_rejects_disagreeing_shards(planner):
    plan = planner.plan("SELECT COUNT(*) AS n FROM t")
    results = [
        ShardResult(["__c0"], [DataType.INTEGER], [(1,)]),
        ShardResult(["other"], [DataType.INTEGER], [(2,)]),
    ]
    with pytest.raises(ShardingError, match="disagree"):
        plan.merge(results)


# ----------------------------------------------------------------------
# Scatter + concat plans.
# ----------------------------------------------------------------------


def test_concat_adds_hidden_sort_column(planner):
    plan = planner.plan("SELECT a FROM t ORDER BY b LIMIT 5")
    assert plan.mode == "scatter_concat"
    assert plan.hidden == ["__sort0"]
    sql = plan.shard_sql.lower()
    assert "__sort0" in sql
    assert "limit 5" in sql  # pushed down with the ORDER BY


def test_concat_pushes_limit_plus_offset(planner):
    plan = planner.plan("SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 3")
    assert "LIMIT 8" in plan.shard_sql


def test_concat_without_limit_drops_shard_order(planner):
    plan = planner.plan("SELECT a FROM t ORDER BY a")
    assert "order by" not in plan.shard_sql.lower()


def test_concat_merge_sorts_dedups_and_limits(planner):
    plan = planner.plan("SELECT DISTINCT a FROM t ORDER BY a LIMIT 3")
    results = [
        ShardResult(["a"], [DataType.INTEGER], [(5,), (1,), (3,)]),
        ShardResult(["a"], [DataType.INTEGER], [(2,), (1,), (9,)]),
    ]
    merged = plan.merge(results)
    assert list(merged.rows()) == [(1,), (2,), (3,)]


def test_concat_merge_drops_hidden_columns(planner):
    plan = planner.plan("SELECT a FROM t ORDER BY b DESC LIMIT 10")
    results = [
        ShardResult(
            ["a", "__sort0"],
            [DataType.INTEGER, DataType.INTEGER],
            [(1, 10), (2, 30)],
        ),
        ShardResult(
            ["a", "__sort0"],
            [DataType.INTEGER, DataType.INTEGER],
            [(3, 20)],
        ),
    ]
    merged = plan.merge(results)
    assert merged.columns == ["a"]
    assert list(merged.rows()) == [(2,), (3,), (1,)]


# ----------------------------------------------------------------------
# ORDER BY target resolution (mirrors the engine).
# ----------------------------------------------------------------------


def test_order_by_alias_resolves_to_aggregate(planner):
    plan = planner.plan(
        "SELECT g, SUM(v) AS sv FROM t GROUP BY g ORDER BY sv DESC"
    )
    assert plan.mode == "scatter_agg"


def test_order_by_ordinal_out_of_range(planner):
    with pytest.raises(PlanningError, match="out of range"):
        planner.plan("SELECT a FROM t ORDER BY 3")


# ----------------------------------------------------------------------
# Gather driver.
# ----------------------------------------------------------------------


def test_gather_routes_to_one_shard_only(planner):
    calls = []

    def run_shard(index, sql):
        calls.append(index)
        return ShardResult(["a"], [DataType.INTEGER], [(index,)])

    plan = planner.plan("SELECT a FROM t WHERE id = 17")
    merged = gather(plan, 4, run_shard)
    assert calls == [shard_of(17, SPEC)]
    assert list(merged.rows()) == [(calls[0],)]


def test_gather_fans_out_to_all_shards(planner):
    seen = []

    def run_shard(index, sql):
        seen.append(index)
        return ShardResult(["__c0"], [DataType.INTEGER], [(index,)])

    plan = planner.plan("SELECT COUNT(*) AS n FROM t")
    merged = gather(plan, 4, run_shard)
    assert sorted(seen) == [0, 1, 2, 3]
    assert list(merged.rows()) == [(0 + 1 + 2 + 3,)]
