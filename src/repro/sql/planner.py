"""Query planning: AST -> physical operator tree.

The planner is engine-agnostic: leaves are produced by a ``scan_factory``
callback, so the identical planning pipeline serves PostgresRaw (raw
scans) and the conventional baselines (binary storage scans) — the
paper's "the rest of the query plan ... works without any changes".

Pipeline: name resolution -> predicate classification & pushdown ->
statistics-driven join ordering -> join tree -> aggregation ->
projection -> distinct/sort/limit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..batch import Batch
from ..catalog.catalog import Catalog
from ..catalog.schema import TableSchema
from ..core.stats import StatisticsStore
from ..datatypes import DataType
from ..errors import PlanningError
from ..executor.expressions import normalize_expression
from ..executor.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    MVScan,
    Operator,
    Project,
    SingleRowSource,
    Sort,
    exact_partials,
    partial_aggregate,
)
from .ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    UnaryOp,
    conjoin,
    contains_aggregate,
    expr_column_refs,
    expr_to_sql,
    split_conjuncts,
    walk_expr,
)
from .optimizer import JoinEdge, Optimizer, estimate_scan_rows

#: ``scan_factory(table_name, output_columns, pushed_predicate)`` returns
#: an operator yielding batches keyed by *schema* column names with the
#: predicate already applied.  ``pushed_predicate`` uses unqualified
#: schema names.  A factory planning under an MV runtime also takes
#: ``row_from=N`` (scan only the table rows from ``N`` on) and its
#: scans report the row they ended at as ``row_to``.
ScanFactory = Callable[..., Operator]

#: ``stats_provider(table_name)`` returns the statistics store (if any).
StatsProvider = Callable[[str], StatisticsStore | None]


def transform_expr(
    expr: Expression, fn: Callable[[Expression], Expression | None]
) -> Expression:
    """Rebuild an expression bottom-up; ``fn`` may replace any node."""
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            transform_expr(expr.left, fn),
            transform_expr(expr.right, fn),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, transform_expr(expr.operand, fn))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            [
                a if isinstance(a, Star) else transform_expr(a, fn)
                for a in expr.args
            ],
            expr.distinct,
        )
    if isinstance(expr, IsNull):
        return IsNull(transform_expr(expr.operand, fn), expr.negated)
    if isinstance(expr, Between):
        return Between(
            transform_expr(expr.expr, fn),
            transform_expr(expr.low, fn),
            transform_expr(expr.high, fn),
            expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            transform_expr(expr.expr, fn),
            [transform_expr(i, fn) for i in expr.items],
            expr.negated,
        )
    if isinstance(expr, Like):
        return Like(transform_expr(expr.expr, fn), expr.pattern, expr.negated)
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name, expr.table)
    if isinstance(expr, Literal):
        return Literal(expr.value, expr.dtype, expr.slot)
    return expr


# ----------------------------------------------------------------------
# Statement-level pieces shared with the MV tier and the sharded
# coordinator (which plans without a catalog).
# ----------------------------------------------------------------------


def strip_alias(expr: Expression) -> Expression:
    """A copy of ``expr`` with unqualified column names."""
    return transform_expr(
        expr,
        lambda node: ColumnRef(node.name)
        if isinstance(node, ColumnRef)
        else None,
    )


def normalize_sql(expr: Expression) -> str:
    """Alias-free SQL rendering (``t.region`` and ``region`` agree): the
    canonical string MV signatures and stored columns are keyed by."""
    return expr_to_sql(strip_alias(expr))


def aggregate_key(node: FunctionCall) -> tuple[str, str]:
    """``(func, normalized arg)`` identity of one aggregate call;
    ``COUNT(*)``'s argument is ``"*"``."""
    if not node.args or isinstance(node.args[0], Star):
        return (node.name, "*")
    return (node.name, normalize_sql(node.args[0]))


def aggregate_calls(stmt: SelectStatement) -> list[FunctionCall]:
    """Every aggregate call in the post-grouping expressions: select
    items, HAVING, ORDER BY, each walked in pre-order."""
    exprs = [
        item.expr for item in stmt.items if not isinstance(item.expr, Star)
    ]
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs.extend(order.expr for order in stmt.order_by)
    return [
        node
        for expr in exprs
        for node in walk_expr(expr)
        if isinstance(node, FunctionCall) and node.is_aggregate
    ]


def is_aggregate_query(stmt: SelectStatement) -> bool:
    """Whether ``stmt`` groups or calls an aggregate anywhere."""
    return bool(stmt.group_by or aggregate_calls(stmt))


def resolve_order_by(
    order_by: list[OrderItem],
    items: list[SelectItem],
    resolve: Callable[[Expression], Expression] = lambda expr: expr,
) -> list[OrderItem]:
    """ORDER BY keys with select aliases and ordinal positions replaced
    by their select item's expression; ``resolve`` maps the others."""
    aliases = {
        item.alias: item.expr for item in items if item.alias is not None
    }
    resolved = []
    for order in order_by:
        expr = order.expr
        if isinstance(expr, Literal) and expr.dtype is DataType.INTEGER:
            ordinal = expr.value
            if not 1 <= ordinal <= len(items):
                raise PlanningError(
                    f"ORDER BY position {ordinal} is out of range"
                )
            expr = items[ordinal - 1].expr
            if isinstance(expr, Star):
                raise PlanningError("cannot ORDER BY a * item")
        elif (
            isinstance(expr, ColumnRef)
            and expr.table is None
            and expr.name in aliases
        ):
            expr = aliases[expr.name]
        else:
            expr = resolve(expr)
        resolved.append(OrderItem(expr, order.ascending))
    return resolved


def select_outputs(
    items: list[SelectItem], available: list[str]
) -> list[tuple[str, Expression]]:
    """Expand ``*`` over the ``available`` input columns and name every
    output: its alias, a column's own name, or else its SQL lower-cased
    and without the one pair of parentheses an operator renders in
    (``(t.j + 1) * 2``, ``count(*)``).  Repeats get ``_2``, ``_3``..."""
    plain_counts: dict[str, int] = {}
    for key in available:
        plain = key.split(".", 1)[-1]
        plain_counts[plain] = plain_counts.get(plain, 0) + 1
    used: dict[str, int] = {}

    def unique(name: str) -> str:
        count = used.get(name, 0)
        used[name] = count + 1
        return name if count == 0 else f"{name}_{count + 1}"

    outputs: list[tuple[str, Expression]] = []
    for item in items:
        if isinstance(item.expr, Star):
            if not available:
                raise PlanningError("SELECT * requires a FROM clause")
            for key in available:
                plain = key.split(".", 1)[-1]
                name = plain if plain_counts[plain] == 1 else key
                outputs.append((unique(name), ColumnRef(key)))
            continue
        if item.alias is not None:
            name = item.alias
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.name
        else:
            name = expr_to_sql(item.expr).lower()
            if name.startswith("("):
                name = name[1:-1]
        outputs.append((unique(name), item.expr))
    return outputs


def rewrite_post_agg(
    stmt: SelectStatement,
    select_items: list[tuple[str, Expression]],
    mapping: dict[str, Expression],
) -> tuple[list[tuple[str, Expression]], Expression | None]:
    """What runs above an aggregate, rewritten over its output.

    ``mapping`` maps the SQL of each group key and aggregate call to the
    expression reading it: an output column, or a final value over
    re-aggregated partials (AVG's division).  Returns the select items
    and HAVING rewritten; ``stmt``'s ORDER BY keys are rewritten in
    place.  A column left over is neither grouped nor aggregated.
    """

    def replace(node: Expression) -> Expression | None:
        target = mapping.get(expr_to_sql(node))
        if target is not None:
            return transform_expr(target, lambda __: None)
        if isinstance(node, ColumnRef):
            raise PlanningError(
                f"column {node.key!r} must appear in GROUP BY or be "
                "used in an aggregate function"
            )
        return None

    rewrite = partial(transform_expr, fn=replace)
    items = [(name, rewrite(expr)) for name, expr in select_items]
    having = None if stmt.having is None else rewrite(stmt.having)
    for order in stmt.order_by:
        order.expr = rewrite(order.expr)
    return items, having


def plan_tail(
    stmt: SelectStatement,
    plan: Operator,
    select_items: list[tuple[str, Expression]],
) -> Operator:
    """The tail every plan shape ends in: projection, sort, DISTINCT,
    LIMIT/OFFSET.  ``stmt.order_by`` keys are over ``plan``'s output;
    one matching a select item sorts on its column, any other travels
    as a hidden ``__sort{i}`` column dropped after the sort."""
    if not stmt.order_by:
        plan = Project(plan, select_items)
    else:
        by_signature = {
            expr_to_sql(expr): name for name, expr in select_items
        }
        project_items = list(select_items)
        sort_keys: list[tuple[Expression, bool]] = []
        for i, order in enumerate(stmt.order_by):
            name = by_signature.get(expr_to_sql(order.expr))
            if name is None:
                name = f"__sort{i}"
                project_items.append((name, order.expr))
            sort_keys.append((ColumnRef(name), order.ascending))
        plan = Sort(Project(plan, project_items), sort_keys)
        if len(project_items) != len(select_items):
            plan = Project(
                plan, [(n, ColumnRef(n)) for n, __ in select_items]
            )
    if stmt.distinct:
        plan = Distinct(plan)
    if stmt.limit is not None or stmt.offset:
        plan = Limit(plan, stmt.limit, stmt.offset or 0)
    return plan


#: ``Planner.plan``'s default ``mv_match``: no serve verdict was
#: obtained for the statement yet, so the planner asks the MV runtime.
UNSERVED = object()


def _copy_operator(
    op: Operator, bind: Callable[[Operator], Operator | dict | None]
) -> Operator:
    """:meth:`LogicalPlan.rebound`'s walk (a module function: a nested
    recursive one is a reference cycle, which would hold what ``bind``
    builds until the next collection)."""
    bound = bind(op)
    if isinstance(bound, Operator):
        return bound
    clone = object.__new__(type(op))
    attrs = clone.__dict__
    attrs.update(vars(op))
    for name, value in attrs.items():
        if isinstance(value, Operator):
            attrs[name] = _copy_operator(value, bind)
    if bound:
        attrs.update(bound)
    return clone


@dataclass
class LogicalPlan:
    """The planner's product: an executable tree plus output metadata."""

    root: Operator
    output_names: list[str]
    output_types: dict[str, DataType]
    #: MV-eligible queries carry their mined signature and the serve
    #: verdict ("exact" | "partial" | "miss"); everything else ``None``.
    mv_signature: object | None = None
    mv_decision: str | None = None
    #: The serving entry's ``mv_id`` when the plan reads an MV.
    mv_id: int | None = None
    #: The resolved statement the plan was built from (column refs
    #: qualified, DATE text coerced, ORDER BY keys substituted).
    stmt: SelectStatement | None = None
    #: Whether the statement's literal values chose the plan's shape,
    #: not only its expressions: it reads an MV (its filters matched
    #: the entry) or statistics ordered its joins.
    literal_shaped: bool = False

    def rebound(
        self, bind: Callable[[Operator], Operator | dict | None]
    ) -> "LogicalPlan":
        """A copy of this plan, operator by operator.

        ``bind(op)`` returns an operator to put in ``op``'s place, or a
        dict of attributes to give its copy, or ``None``.  Every
        operator not replaced is copied shallowly (operators keep no
        execution state) over copies of its children, so a cached plan
        is never mutated by what is bound into a copy of it.
        """

        clone = object.__new__(LogicalPlan)
        clone.__dict__.update(vars(self), root=_copy_operator(self.root, bind))
        return clone

    def explain(self) -> str:
        text = "\n".join(self.root.explain_lines())
        if self.mv_decision == "miss":
            text += (
                "\n-- mv: raw fallback "
                "(no matching materialized aggregate)"
            )
        return text


@dataclass
class _TableBinding:
    alias: str
    table_name: str
    schema: TableSchema


class Planner:
    """Plans one SELECT statement against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        scan_factory: ScanFactory,
        stats_provider: StatsProvider | None = None,
        optimizer: Optimizer | None = None,
        mv=None,
        mv_mining: bool = True,
        mv_captures: list | None = None,
    ) -> None:
        self.catalog = catalog
        self.scan_factory = scan_factory
        self.stats_provider = stats_provider or (lambda __: None)
        self.optimizer = optimizer or Optimizer()
        #: Duck-typed :class:`repro.mv.MVRuntime` (``None`` disables MV
        #: planning entirely — mv.signature imports this module's
        #: statement-level functions, so it must never import repro.mv).
        self.mv = mv
        #: ``False`` for EXPLAIN: preview serve decisions without
        #: mining the signature or bumping hit/miss counters.
        self.mv_mining = mv_mining
        #: The service's per-statement deferred list: at execution
        #: time every :class:`MVScan` fold (a capture or a tail merge)
        #: appends a ``(table, install)`` pair, installed by calling
        #: ``install(generation)`` under the table's write lock.
        self.mv_captures = mv_captures

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def plan(
        self,
        stmt: SelectStatement,
        mv_match: object = UNSERVED,
        resolved: bool = False,
    ) -> LogicalPlan:
        """Plan ``stmt``, which is left unchanged (one parsed statement
        may be planned any number of times).

        ``mv_match`` is a serve verdict the caller already obtained for
        this statement's signature (an ``MVMatch`` or ``None``): the
        plan cache's hit path, which must not serve — and so mine — a
        statement twice.  ``resolved`` marks ``stmt`` as a plan's
        resolved statement (:attr:`LogicalPlan.stmt`), planned as is.
        """
        bindings = self._bind_tables(stmt)
        types_full = {
            f"{b.alias}.{c.name}": c.dtype
            for b in bindings
            for c in b.schema
        }

        if not resolved:
            stmt = self._resolve_statement(stmt, bindings, types_full)
        resolved_stmt = stmt
        # Planning rewrites ORDER BY keys in place: on a copy of them.
        stmt = dataclasses.replace(
            stmt,
            order_by=[OrderItem(o.expr, o.ascending) for o in stmt.order_by],
        )

        mv_sig = None
        mv_decision = None
        if self.mv is not None and len(bindings) == 1:
            mv_sig = self.mv.signature_of(stmt, bindings[0].table_name)
        if mv_sig is not None:
            match = mv_match
            if match is UNSERVED:
                match = self.mv.serve(mv_sig, record=self.mv_mining)
            mv_decision = "miss" if match is None else match.kind
            if match is None:
                # A capture folds a new, empty entry from row 0 and is
                # served like a lagging hit; the plan stays a miss.
                match = self.mv.capture(stmt, mv_sig)
            if match is not None:
                plan, select_items = self._plan_from_mv(stmt, mv_sig, match)
                logical = self._finish_plan(
                    stmt, plan, select_items, mv_sig, mv_decision
                )
                logical.mv_id = match.entry.mv_id
                logical.stmt = resolved_stmt
                logical.literal_shaped = True
                return logical

        if not bindings:
            plan: Operator = SingleRowSource()
            residual: list[Expression] = []
            if stmt.where is not None:
                residual = [stmt.where]
        else:
            plan, residual = self._plan_from_where(stmt, bindings, types_full)

        for conjunct in residual:
            plan = Filter(plan, conjunct)

        plan, select_items = self._plan_aggregation(stmt, plan)
        logical = self._finish_plan(
            stmt, plan, select_items, mv_sig, mv_decision
        )
        logical.stmt = resolved_stmt
        logical.literal_shaped = self._orders_by_statistics(stmt, bindings)
        return logical

    def _finish_plan(
        self,
        stmt: SelectStatement,
        plan: Operator,
        select_items: list[tuple[str, Expression]],
        mv_sig=None,
        mv_decision: str | None = None,
    ) -> LogicalPlan:
        root = plan_tail(stmt, plan, select_items)
        return LogicalPlan(
            root,
            [name for name, __ in select_items],
            root.output_types(),
            mv_sig,
            mv_decision,
        )

    def mv_signature(self, stmt: SelectStatement):
        """Bind/resolve ``stmt`` and return its MV signature (or
        ``None`` when MV-ineligible) without building a plan — the
        service's ``build_mv`` entry point."""
        if self.mv is None:
            return None
        bindings = self._bind_tables(stmt)
        if len(bindings) != 1:
            return None
        types_full = {
            f"{b.alias}.{c.name}": c.dtype
            for b in bindings
            for c in b.schema
        }
        stmt = self._resolve_statement(stmt, bindings, types_full)
        return self.mv.signature_of(stmt, bindings[0].table_name)

    # ------------------------------------------------------------------
    # Binding & resolution.
    # ------------------------------------------------------------------

    def _bind_tables(self, stmt: SelectStatement) -> list[_TableBinding]:
        bindings: list[_TableBinding] = []
        refs = []
        if stmt.from_table is not None:
            refs.append(stmt.from_table)
            refs.extend(j.table for j in stmt.joins)
        seen = set()
        for ref in refs:
            alias = ref.effective_alias
            if alias in seen:
                raise PlanningError(f"duplicate table alias {alias!r}")
            seen.add(alias)
            schema = self.catalog.schema_of(ref.name)
            bindings.append(_TableBinding(alias, ref.name, schema))
        return bindings

    def _resolve_statement(
        self,
        stmt: SelectStatement,
        bindings: list[_TableBinding],
        types_full: dict[str, DataType],
    ) -> SelectStatement:
        """A resolved copy of ``stmt``: column refs qualified, DATE
        literals coerced, ORDER BY aliases and ordinals substituted.
        Everything downstream rewrites the copy, never the input."""

        by_alias = {b.alias: b for b in bindings}

        def qualify(node: Expression) -> ColumnRef | None:
            if isinstance(node, ColumnRef):
                return ColumnRef(node.name, self._owner(node, by_alias))
            return None

        def resolve(expr: Expression | None) -> Expression | None:
            if expr is None:
                return None
            return normalize_expression(
                transform_expr(expr, qualify), types_full
            )

        items = [
            item
            if isinstance(item.expr, Star)
            else SelectItem(resolve(item.expr), item.alias)
            for item in stmt.items
        ]
        return dataclasses.replace(
            stmt,
            items=items,
            joins=[
                JoinClause(j.table, resolve(j.condition), j.kind)
                for j in stmt.joins
            ],
            where=resolve(stmt.where),
            group_by=[resolve(expr) for expr in stmt.group_by],
            having=resolve(stmt.having),
            order_by=resolve_order_by(stmt.order_by, items, resolve),
        )

    @staticmethod
    def _owner(
        node: ColumnRef, by_alias: dict[str, _TableBinding]
    ) -> str:
        """The alias of the table ``node`` refers to."""
        if node.table is not None:
            binding = by_alias.get(node.table)
            if binding is None:
                raise PlanningError(f"unknown table alias {node.table!r}")
            if not binding.schema.has_column(node.name):
                raise PlanningError(
                    f"table {node.table!r} has no column {node.name!r}"
                )
            return node.table
        owners = [
            alias
            for alias, b in by_alias.items()
            if b.schema.has_column(node.name)
        ]
        if not owners:
            raise PlanningError(f"unknown column {node.name!r}")
        if len(owners) > 1:
            raise PlanningError(
                f"ambiguous column {node.name!r} (in {owners})"
            )
        return owners[0]

    # ------------------------------------------------------------------
    # FROM/WHERE planning: pushdown, join ordering, join tree.
    # ------------------------------------------------------------------

    def _plan_from_where(
        self,
        stmt: SelectStatement,
        bindings: list[_TableBinding],
        types_full: dict[str, DataType],
    ) -> tuple[Operator, list[Expression]]:
        has_left_join = any(j.kind == "left" for j in stmt.joins)
        if has_left_join:
            return self._plan_left_joins(stmt, bindings)

        where_conjuncts = split_conjuncts(stmt.where)
        join_conjuncts: list[Expression] = []
        for join in stmt.joins:
            join_conjuncts.extend(split_conjuncts(join.condition))

        pushed: dict[str, list[Expression]] = {b.alias: [] for b in bindings}
        edges: list[JoinEdge] = []
        residual: list[Expression] = []
        for conjunct in where_conjuncts + join_conjuncts:
            aliases = {r.table for r in expr_column_refs(conjunct)}
            if len(aliases) == 0:
                residual.append(conjunct)
            elif len(aliases) == 1:
                pushed[aliases.pop()].append(conjunct)
            else:
                edge = self._as_join_edge(conjunct)
                if edge is not None:
                    edges.append(edge)
                else:
                    residual.append(conjunct)

        needed = self._needed_columns(stmt, residual, edges, bindings)
        if len(bindings) == 1:
            # Estimates only order joins and pick build sides.
            return self._build_scan(bindings[0], needed, pushed), residual
        by_alias = {b.alias: b for b in bindings}
        estimates = {}
        for binding in bindings:
            stats = self.stats_provider(binding.table_name)
            pred = conjoin([strip_alias(c) for c in pushed[binding.alias]])
            estimates[binding.alias] = estimate_scan_rows(stats, pred)

        order = self.optimizer.order_joins(
            [b.alias for b in bindings], estimates, edges
        )

        plan = self._build_scan(by_alias[order[0]], needed, pushed)
        current_estimate = estimates[order[0]]
        joined = {order[0]}
        remaining_edges = list(edges)
        for alias in order[1:]:
            scan = self._build_scan(by_alias[alias], needed, pushed)
            left_keys, right_keys, remaining_edges = self._keys_for(
                remaining_edges, joined, alias
            )
            if not left_keys:
                raise PlanningError(
                    f"no join condition connects {alias!r} to {sorted(joined)}"
                )
            # Physical choice: build the hash table on the smaller input
            # (the accumulated tree or the incoming scan).
            new_estimate = estimates[alias]
            if current_estimate <= new_estimate:
                plan = HashJoin(scan, plan, right_keys, left_keys, "inner")
            else:
                plan = HashJoin(plan, scan, left_keys, right_keys, "inner")
            current_estimate = max(current_estimate, new_estimate)
            joined.add(alias)
        return plan, residual

    def _orders_by_statistics(
        self, stmt: SelectStatement, bindings: list[_TableBinding]
    ) -> bool:
        """Whether :meth:`_plan_from_where` ordered joins by estimates
        read off statistics (which weigh the filters' literals)."""
        return (
            len(bindings) > 1
            and not any(j.kind == "left" for j in stmt.joins)
            and any(
                self.stats_provider(b.table_name) is not None
                for b in bindings
            )
        )

    def _plan_left_joins(
        self, stmt: SelectStatement, bindings: list[_TableBinding]
    ) -> tuple[Operator, list[Expression]]:
        """Syntactic-order planning when LEFT JOINs are present (no
        reordering; WHERE pushdown restricted to the leftmost table)."""
        by_alias = {b.alias: b for b in bindings}
        base_alias = bindings[0].alias

        where_conjuncts = split_conjuncts(stmt.where)
        pushed: dict[str, list[Expression]] = {b.alias: [] for b in bindings}
        residual: list[Expression] = []
        for conjunct in where_conjuncts:
            aliases = {r.table for r in expr_column_refs(conjunct)}
            if aliases == {base_alias}:
                pushed[base_alias].append(conjunct)
            else:
                residual.append(conjunct)

        join_specs = []
        joined = {base_alias}
        for join in stmt.joins:
            alias = join.table.effective_alias
            edges: list[JoinEdge] = []
            for conjunct in split_conjuncts(join.condition):
                aliases = {r.table for r in expr_column_refs(conjunct)}
                if aliases == {alias}:
                    pushed[alias].append(conjunct)
                    continue
                edge = self._as_join_edge(conjunct)
                if edge is None or alias not in (
                    edge.left_alias,
                    edge.right_alias,
                ):
                    raise PlanningError(
                        "LEFT JOIN ON conditions must be equality "
                        f"predicates, got {expr_to_sql(conjunct)}"
                    )
                edges.append(edge)
            if not edges:
                raise PlanningError(
                    f"join with {alias!r} has no equality condition"
                )
            join_specs.append((join, alias, edges))
            joined.add(alias)

        needed = self._needed_columns(
            stmt,
            residual,
            [e for __, __, es in join_specs for e in es],
            bindings,
        )
        plan = self._build_scan(by_alias[base_alias], needed, pushed)
        joined = {base_alias}
        for join, alias, edges in join_specs:
            right = self._build_scan(by_alias[alias], needed, pushed)
            left_keys, right_keys, __ = self._keys_for(edges, joined, alias)
            if not left_keys:
                raise PlanningError(
                    f"join with {alias!r} does not reference earlier tables"
                )
            plan = HashJoin(plan, right, left_keys, right_keys, join.kind)
            joined.add(alias)
        return plan, residual

    def _as_join_edge(self, conjunct: Expression) -> JoinEdge | None:
        if (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
            and conjunct.left.table != conjunct.right.table
        ):
            return JoinEdge(
                conjunct.left.table,
                conjunct.left,
                conjunct.right.table,
                conjunct.right,
            )
        return None

    def _keys_for(
        self, edges: list[JoinEdge], joined: set[str], new_alias: str
    ) -> tuple[list[str], list[str], list[JoinEdge]]:
        left_keys: list[str] = []
        right_keys: list[str] = []
        leftover: list[JoinEdge] = []
        for edge in edges:
            if edge.left_alias in joined and edge.right_alias == new_alias:
                left_keys.append(edge.left_column.key)
                right_keys.append(edge.right_column.key)
            elif edge.right_alias in joined and edge.left_alias == new_alias:
                left_keys.append(edge.right_column.key)
                right_keys.append(edge.left_column.key)
            else:
                leftover.append(edge)
        return left_keys, right_keys, leftover

    def _needed_columns(
        self,
        stmt: SelectStatement,
        residual: list[Expression],
        edges: list[JoinEdge],
        bindings: list[_TableBinding],
    ) -> dict[str, list[str]]:
        """Projection pruning: which columns must each scan output."""
        needed: dict[str, set[str]] = {b.alias: set() for b in bindings}

        def collect(expr: Expression) -> None:
            for ref in expr_column_refs(expr):
                needed[ref.table].add(ref.name)

        for item in stmt.items:
            if isinstance(item.expr, Star):
                for b in bindings:
                    needed[b.alias].update(b.schema.names())
            else:
                collect(item.expr)
        for expr in residual:
            collect(expr)
        for edge in edges:
            needed[edge.left_alias].add(edge.left_column.name)
            needed[edge.right_alias].add(edge.right_column.name)
        for expr in stmt.group_by:
            collect(expr)
        if stmt.having is not None:
            collect(stmt.having)
        for order in stmt.order_by:
            collect(order.expr)

        # Keep schema order for deterministic output.
        by_alias = {b.alias: b for b in bindings}
        return {
            alias: [
                c for c in by_alias[alias].schema.names() if c in cols
            ]
            for alias, cols in needed.items()
        }

    def _build_scan(
        self,
        binding: _TableBinding,
        needed: dict[str, list[str]],
        pushed: dict[str, list[Expression]],
    ) -> Operator:
        columns = needed[binding.alias]
        predicate = conjoin([strip_alias(c) for c in pushed[binding.alias]])
        scan = self.scan_factory(binding.table_name, columns, predicate)
        if not columns:
            return scan
        return Project(
            scan,
            [(f"{binding.alias}.{c}", ColumnRef(c)) for c in columns],
        )

    # ------------------------------------------------------------------
    # Materialized-aggregate serving.
    # ------------------------------------------------------------------

    def _plan_from_mv(
        self, stmt: SelectStatement, sig, match
    ) -> tuple[Operator, list[tuple[str, Expression]]]:
        """Serve an aggregate query from an MV: a resident one, or a
        capture's new entry (:meth:`_mv_scan` folds the rows it lacks).

        Exact match: the stored batch *is* the aggregate output; group
        keys and aggregate calls map straight onto its canonical
        columns.  Partial match: the MV is wider, so leftover filters
        and a re-aggregation run over the stored groups first.
        """
        entry = match.entry
        if match.kind == "exact":
            mapping: dict[str, Expression] = {}
            for expr in stmt.group_by:
                mapping.setdefault(
                    expr_to_sql(expr), ColumnRef(normalize_sql(expr))
                )
            for node in aggregate_calls(stmt):
                mapping.setdefault(
                    expr_to_sql(node),
                    ColumnRef(entry.columns[aggregate_key(node)]),
                )
            shown = frozenset(ref.name for ref in mapping.values())
            plan: Operator = self._mv_scan(match, "exact", shown)
        else:
            plan, mapping = self._plan_mv_partial(stmt, sig, match)

        select_items, having = rewrite_post_agg(  # MV signatures have no *
            stmt, select_outputs(stmt.items, []), mapping
        )
        if having is not None:
            plan = Filter(plan, having)
        return plan, select_items

    def _mv_scan(self, match, label: str, shown: frozenset[str]) -> MVScan:
        """The leaf serving ``match``'s stored batch (``shown``: the
        stored columns the plan above reads as they are).

        An entry level with its table is served as stored.  A lagging
        one also gets its own aggregate, rebuilt from its recipe over
        the table rows past its watermark; the leaf merges the two and
        hands the result to the deferred list, whose step advances the
        entry.  A capture is a new entry (no ``mv_id`` yet) lagging
        from row 0: its stored side is empty and its step installs it.
        """
        entry = match.entry
        if not match.lagging:
            return MVScan(match.batch, entry.types, f"MVScan [{label}]")
        recipe = entry.recipe
        table = entry.signature.table
        exprs = [expr for __, expr in recipe.groups]
        exprs += [arg for __, __, arg in recipe.aggs if arg is not None]
        pushed = [c for c in recipe.filters if expr_column_refs(c)]
        used = {
            ref.name for e in exprs + pushed for ref in expr_column_refs(e)
        }
        scan = self.scan_factory(
            table,
            [c for c in self.catalog.schema_of(table).names() if c in used],
            conjoin(pushed),
            row_from=match.rows,
        )
        tail: Operator = scan
        for conjunct in recipe.filters:
            if not expr_column_refs(conjunct):
                tail = Filter(tail, conjunct)
        tail = HashAggregate(
            tail,
            list(recipe.groups),
            [AggregateSpec(*component) for component in recipe.aggs],
            frozenset(name for name, __, __ in recipe.aggs),
        )
        new = entry.mv_id is None
        if new:
            types = tail.output_types()
            for (func, __), name in entry.columns.items():
                if func == "avg":
                    types[name] = DataType.FLOAT
            stored = Batch.empty_like(types)
            label = f"MVCapture [{entry.signature.label()}]"
        else:
            types, stored = entry.types, match.batch
            label = f"MVScan [{label} + tail from row {match.rows}]"
        on_merged = None
        if self.mv_captures is not None:
            deferred, mv = self.mv_captures, self.mv

            def on_merged(batch: Batch, seconds: float) -> None:
                if new:
                    step = partial(mv.install, entry, batch, seconds)
                else:
                    step = partial(mv.advance, entry, match.rows, batch)
                deferred.append((table, partial(step, scan.row_to)))

        return MVScan(
            stored, types, label, tail, entry.columns, on_merged, shown
        )

    def _plan_mv_partial(
        self, stmt: SelectStatement, sig, match
    ) -> tuple[Operator, dict[str, Expression]]:
        """Filter + re-aggregate a wider MV's stored partials down to
        the query's shape (:func:`partial_aggregate`)."""
        entry = match.entry
        dims = ", ".join(sig.dims) or "<global>"
        # The re-aggregation below reads the partials: it decides
        # which sums must fit.
        plan = self._mv_scan(
            match, f"partial: re-agg over {dims}", frozenset()
        )
        residual = set(match.residual_filters)
        applied: set[str] = set()
        for conjunct in split_conjuncts(stmt.where):
            normalized = normalize_sql(conjunct)
            if normalized in residual and normalized not in applied:
                applied.add(normalized)
                plan = Filter(plan, strip_alias(conjunct))

        group_items: list[tuple[str, Expression]] = []
        mapping: dict[str, Expression] = {}
        for expr in stmt.group_by:
            qualified = expr_to_sql(expr)
            if qualified in mapping:
                continue
            name = f"__g{len(group_items)}"
            group_items.append((name, ColumnRef(normalize_sql(expr))))
            mapping[qualified] = ColumnRef(name)

        specs: list[AggregateSpec] = []
        spec_names: dict[tuple[str, str], str] = {}

        def component(arg: str, func: str, reagg: str) -> Expression:
            key = (func, arg)
            name = spec_names.get(key)
            if name is None:
                name = f"__a{len(specs)}"
                specs.append(
                    AggregateSpec(name, reagg, ColumnRef(entry.columns[key]))
                )
                spec_names[key] = name
            return ColumnRef(name)

        for node in aggregate_calls(stmt):
            qualified = expr_to_sql(node)
            if qualified not in mapping:
                func, arg = aggregate_key(node)
                mapping[qualified] = partial_aggregate(
                    func, partial(component, arg)
                )
        exact = exact_partials(specs, mapping.values())
        return HashAggregate(plan, group_items, specs, exact), mapping

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def _plan_aggregation(
        self, stmt: SelectStatement, plan: Operator
    ) -> tuple[Operator, list[tuple[str, Expression]]]:
        """Insert HashAggregate when needed; returns rewritten select items."""
        select_items = select_outputs(stmt.items, list(plan.output_types()))
        if not is_aggregate_query(stmt):
            if stmt.having is not None:
                raise PlanningError("HAVING requires GROUP BY or aggregates")
            return plan, select_items

        if any(isinstance(item.expr, Star) for item in stmt.items):
            raise PlanningError("SELECT * cannot be combined with GROUP BY")

        # Group keys.
        group_items: list[tuple[str, Expression]] = []
        mapping: dict[str, Expression] = {}
        for expr in stmt.group_by:
            signature = expr_to_sql(expr)
            if signature not in mapping:
                name = f"__g{len(group_items)}"
                group_items.append((name, expr))
                mapping[signature] = ColumnRef(name)

        # Aggregate calls, collected from every post-grouping expression.
        specs: list[AggregateSpec] = []
        for node in aggregate_calls(stmt):
            if any(
                contains_aggregate(arg)
                for arg in node.args
                if not isinstance(arg, Star)
            ):
                raise PlanningError(
                    "nested aggregate functions are not allowed"
                )
            signature = expr_to_sql(node)
            if signature in mapping:
                continue
            name = f"__a{len(specs)}"
            arg = None
            if node.args and not isinstance(node.args[0], Star):
                arg = node.args[0]
            specs.append(AggregateSpec(name, node.name, arg, node.distinct))
            mapping[signature] = ColumnRef(name)

        select_items, having = rewrite_post_agg(stmt, select_items, mapping)
        plan = HashAggregate(plan, group_items, specs)
        if having is not None:
            plan = Filter(plan, having)
        return plan, select_items
