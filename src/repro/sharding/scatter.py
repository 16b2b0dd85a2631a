"""Scatter/gather planning for queries over a sharded cluster.

Given the cluster's partition map, :class:`ScatterPlanner` decides per
query between:

* **route** — a top-level ``key = literal`` (or single-shard ``IN``)
  equality pins the query to one shard; the original SQL is forwarded
  verbatim and the answer streams back untouched.
* **scatter + re-aggregate** — aggregate queries are decomposed into
  per-shard partial aggregates and merged with a second
  :class:`~repro.executor.operators.HashAggregate` that re-aggregates
  them, both by :func:`~repro.executor.operators.partial_aggregate`
  (the algebra a materialized aggregate's partial serving and tail
  merges use too).
* **scatter + concat** — everything else fans out and the client
  merges streams, replaying the engine's own plan tail over the union.

The merge runs the *same* Volcano operators the single-node engine
uses, over batches rebuilt from shard rows, and is planned by the
engine planner's own statement-level functions (ORDER BY resolution,
output naming, the post-aggregate rewrite, the plan tail) — there is
one aggregation algebra in the codebase, not two.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

from ..batch import Batch, ColumnVector
from ..catalog.schema import PartitionSpec
from ..datatypes import DataType
from ..errors import PlanningError, ShardingError
from ..executor.operators import (
    AggregateSpec,
    BatchSource,
    Filter,
    HashAggregate,
    Operator,
    partial_aggregate,
)
from ..sql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    contains_aggregate,
    expr_to_sql,
    select_to_sql,
    split_conjuncts,
)
from ..sql.parser import parse_select
from ..sql.planner import (
    aggregate_calls,
    is_aggregate_query,
    plan_tail,
    resolve_order_by,
    rewrite_post_agg,
    select_outputs,
    transform_expr,
)


@dataclass
class ShardResult:
    """One shard's answer, normalized for merging."""

    columns: list[str]
    types: list[DataType]
    rows: list[tuple]


@dataclass
class MergedResult:
    """The gathered answer: final column names, types and row stream."""

    columns: list[str]
    types: list[DataType]
    _rows: Iterator[tuple]

    def rows(self) -> Iterator[tuple]:
        return self._rows


@dataclass
class ScatterPlan:
    """The routing decision for one SQL statement."""

    mode: str  # route | scatter_agg | scatter_concat
    shard_sql: str
    target: int | None = None  # route only
    route_reason: str = ""
    #: Names of hidden shard output columns dropped after the merge.
    hidden: list[str] = field(default_factory=list)
    _merge_builder: Callable[[Operator], Operator] | None = None
    _final_names: list[str] | None = None

    @property
    def is_routed(self) -> bool:
        return self.mode == "route"

    def explain_lines(self) -> list[str]:
        if self.is_routed:
            return [
                f"Route [shard {self.target}] {self.route_reason}",
                f"  {self.shard_sql}",
            ]
        kind = (
            "re-aggregate"
            if self.mode == "scatter_agg"
            else "concat"
        )
        return [
            f"ScatterGather [{kind}]",
            f"  shard SQL: {self.shard_sql}",
        ]

    # ------------------------------------------------------------------
    # Merge execution.
    # ------------------------------------------------------------------

    def merge(self, results: Sequence[ShardResult]) -> MergedResult:
        """Combine shard answers into the final result stream."""
        if self.is_routed:
            (res,) = results
            return MergedResult(res.columns, res.types, iter(res.rows))
        if not results:
            raise ShardingError("gather received no shard results")
        columns = results[0].columns
        types = dict(zip(columns, results[0].types))
        batches = [_to_batch(res, columns, types) for res in results]
        plan: Operator = BatchSource(
            lambda: iter(batches), types, "ShardGather"
        )
        if self._merge_builder is not None:
            plan = self._merge_builder(plan)
        out_types = plan.output_types()
        names = self._final_names or list(out_types)
        return MergedResult(
            names,
            [out_types[k] for k in out_types],
            _iter_rows(plan),
        )


def _to_batch(
    res: ShardResult, columns: list[str], types: dict[str, DataType]
) -> Batch:
    if res.columns != columns:
        raise ShardingError(
            f"shard results disagree on columns: {res.columns} vs {columns}"
        )
    cols = {}
    by_pos = list(zip(*res.rows)) if res.rows else [[]] * len(columns)
    for i, name in enumerate(columns):
        cols[name] = ColumnVector.from_pylist(types[name], list(by_pos[i]))
    return Batch(cols, num_rows=len(res.rows))


def _iter_rows(plan: Operator) -> Iterator[tuple]:
    for batch in plan.execute():
        yield from batch.rows()


# ----------------------------------------------------------------------
# Planning.
# ----------------------------------------------------------------------


class ScatterPlanner:
    """Decides route vs scatter for each statement.

    ``partition_map`` maps table name → :class:`PartitionSpec` (the
    coordinator-side view; specs carry no ``index``).
    """

    def __init__(
        self, partition_map: dict[str, PartitionSpec], n_shards: int
    ) -> None:
        self.partition_map = dict(partition_map)
        self.n_shards = n_shards

    def plan(self, sql: str) -> ScatterPlan:
        if self.n_shards == 1:
            return ScatterPlan(
                "route", sql, target=0, route_reason="single shard"
            )
        stmt = parse_select(sql)
        if stmt.from_table is None:
            return ScatterPlan(
                "route", sql, target=0, route_reason="no FROM clause"
            )
        spec = self.partition_map.get(stmt.from_table.name)
        if spec is None:
            # Unknown table: forward as-is so the worker raises the
            # engine's own catalog error.
            return ScatterPlan(
                "route", sql, target=0, route_reason="unpartitioned table"
            )
        if stmt.joins:
            raise ShardingError(
                "joins are not supported on sharded tables "
                "(co-partitioned joins are future work)"
            )
        stmt.order_by = resolve_order_by(stmt.order_by, stmt.items)
        routed = self._try_route(stmt, spec, sql)
        if routed is not None:
            return routed
        if is_aggregate_query(stmt):
            return self._plan_scatter_agg(stmt)
        return self._plan_scatter_concat(stmt)

    # -- routing -------------------------------------------------------

    def _try_route(
        self, stmt: SelectStatement, spec: PartitionSpec, sql: str
    ) -> ScatterPlan | None:
        from .partition import shard_of

        for conjunct in split_conjuncts(stmt.where):
            values = _key_values(conjunct, spec.key)
            if values is None:
                continue
            shards = {shard_of(v, spec) for v in values}
            if len(shards) == 1:
                shown = (
                    repr(values[0])
                    if len(values) == 1
                    else f"IN {tuple(values)!r}"
                )
                return ScatterPlan(
                    "route",
                    sql,
                    target=shards.pop(),
                    route_reason=f"{spec.key} = {shown}",
                )
        return None

    # -- scatter + re-aggregate ---------------------------------------

    def _plan_scatter_agg(self, stmt: SelectStatement) -> ScatterPlan:
        if any(isinstance(item.expr, Star) for item in stmt.items):
            raise PlanningError("SELECT * cannot be combined with GROUP BY")

        # Group keys, deduplicated by SQL signature (mirrors the
        # engine's __g{i} naming, renamed __d{i} for the wire).
        dims: list[tuple[str, Expression]] = []
        mapping: dict[str, Expression] = {}
        for expr in stmt.group_by:
            signature = expr_to_sql(expr)
            if signature not in mapping:
                name = f"__d{len(dims)}"
                dims.append((name, expr))
                mapping[signature] = ColumnRef(name)

        # Aggregate calls → partial components + re-aggregation specs.
        comps: list[tuple[str, FunctionCall, str]] = []  # name, call, reagg
        comp_by_key: dict[tuple[str, str], str] = {}

        def component(
            source: FunctionCall, func: str, reagg: str
        ) -> Expression:
            arg_sig = expr_to_sql(source.args[0]) if source.args else "*"
            key = (func, arg_sig)
            name = comp_by_key.get(key)
            if name is None:
                name = f"__c{len(comps)}"
                comp_by_key[key] = name
                call = FunctionCall(func, list(source.args))
                comps.append((name, call, reagg))
            return ColumnRef(name)

        for node in aggregate_calls(stmt):
            for arg in node.args:
                if not isinstance(arg, Star) and contains_aggregate(arg):
                    raise PlanningError(
                        "nested aggregate functions are not allowed"
                    )
            if node.distinct:
                raise ShardingError(
                    "DISTINCT aggregates cannot be decomposed into "
                    "per-shard partials; run against one shard or "
                    "an unsharded server"
                )
            signature = expr_to_sql(node)
            if signature not in mapping:
                mapping[signature] = partial_aggregate(
                    node.name, partial(component, node)
                )

        shard_stmt = SelectStatement(
            items=[SelectItem(expr, name) for name, expr in dims]
            + [SelectItem(call, name) for name, call, __ in comps],
            from_table=stmt.from_table,
            where=stmt.where,
            group_by=list(stmt.group_by),
        )
        shard_sql = select_to_sql(shard_stmt)

        names = _engine_names(stmt)
        select_items, having = rewrite_post_agg(
            stmt,
            [(name, item.expr) for name, item in zip(names, stmt.items)],
            mapping,
        )
        group_items = [(name, ColumnRef(name)) for name, __ in dims]
        specs = [
            AggregateSpec(name, reagg, ColumnRef(name))
            for name, __, reagg in comps
        ]

        def build(source: Operator) -> Operator:
            plan: Operator = HashAggregate(source, group_items, specs)
            if having is not None:
                plan = Filter(plan, having)
            return plan_tail(stmt, plan, select_items)

        return ScatterPlan(
            "scatter_agg",
            shard_sql,
            _merge_builder=build,
            _final_names=names,
        )

    # -- scatter + concat ---------------------------------------------

    def _plan_scatter_concat(self, stmt: SelectStatement) -> ScatterPlan:
        has_star = any(isinstance(i.expr, Star) for i in stmt.items)
        by_signature = (
            {}
            if has_star
            else {
                expr_to_sql(item.expr): name
                for name, item in zip(_engine_names(stmt), stmt.items)
            }
        )

        # Sort keys are shard output columns: a select item's, or a
        # hidden __sort{i} column the merge drops after sorting.
        shard_items = list(stmt.items)
        hidden: list[str] = []
        sort_keys: list[OrderItem] = []
        for i, order in enumerate(stmt.order_by):
            name = by_signature.get(expr_to_sql(order.expr))
            if name is None:
                name = f"__sort{i}"
                hidden.append(name)
                shard_items.append(SelectItem(order.expr, name))
            sort_keys.append(OrderItem(ColumnRef(name), order.ascending))

        # With a LIMIT, shards pre-sort and return only the rows that
        # can possibly survive the global cut; otherwise shard-side
        # ordering is wasted work (the merge re-sorts anyway).
        push_limit = stmt.limit is not None
        shard_stmt = SelectStatement(
            items=shard_items,
            distinct=stmt.distinct,
            from_table=stmt.from_table,
            where=stmt.where,
            order_by=list(stmt.order_by) if push_limit else [],
            limit=(
                stmt.limit + (stmt.offset or 0) if push_limit else None
            ),
        )
        shard_sql = select_to_sql(shard_stmt)
        merge_stmt = dataclasses.replace(stmt, order_by=sort_keys)

        def build(source: Operator) -> Operator:
            visible = [k for k in source.output_types() if k not in hidden]
            return plan_tail(
                merge_stmt, source, [(k, ColumnRef(k)) for k in visible]
            )

        return ScatterPlan(
            "scatter_concat",
            shard_sql,
            hidden=hidden,
            _merge_builder=build,
        )


# ----------------------------------------------------------------------
# Shared pieces.
# ----------------------------------------------------------------------


def _key_values(
    conjunct: Expression, key: str
) -> list[object] | None:
    """Literal key values pinned by one conjunct, else ``None``."""

    def is_key(expr: Expression) -> bool:
        return isinstance(expr, ColumnRef) and expr.name == key

    if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if is_key(left) and isinstance(right, Literal):
            return [right.value] if right.value is not None else None
        if is_key(right) and isinstance(left, Literal):
            return [left.value] if left.value is not None else None
    if (
        isinstance(conjunct, InList)
        and not conjunct.negated
        and is_key(conjunct.expr)
        and conjunct.items
        and all(isinstance(i, Literal) for i in conjunct.items)
        and all(i.value is not None for i in conjunct.items)
    ):
        return [i.value for i in conjunct.items]
    return None


def _engine_names(stmt: SelectStatement) -> list[str]:
    """The output names the engine gives ``stmt``'s select items.  The
    engine names them after resolution, which qualifies every column by
    the table's alias; qualifying here is all that resolution adds."""
    alias = stmt.from_table.effective_alias

    def qualify(node: Expression) -> Expression | None:
        if isinstance(node, ColumnRef) and node.table is None:
            return ColumnRef(node.name, alias)
        return None

    items = [
        SelectItem(transform_expr(item.expr, qualify), item.alias)
        for item in stmt.items
    ]
    return [name for name, __ in select_outputs(items, [])]


# ----------------------------------------------------------------------
# Gather driver.
# ----------------------------------------------------------------------


def gather(
    plan: ScatterPlan,
    n_shards: int,
    run_shard: Callable[[int, str], ShardResult],
    pool: ThreadPoolExecutor | None = None,
) -> MergedResult:
    """Run a plan against shard backends and merge the answers.

    ``run_shard(index, sql)`` executes on one shard; scattered shapes
    fan out concurrently on ``pool`` (or inline for a single shard).
    """
    if plan.is_routed:
        return plan.merge([run_shard(plan.target, plan.shard_sql)])
    if n_shards == 1 or pool is None:
        results = [
            run_shard(i, plan.shard_sql) for i in range(n_shards)
        ]
    else:
        futures = [
            pool.submit(run_shard, i, plan.shard_sql)
            for i in range(n_shards)
        ]
        results = [f.result() for f in futures]
    return plan.merge(results)
