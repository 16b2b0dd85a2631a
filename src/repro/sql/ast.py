"""Abstract syntax tree for the supported SQL subset.

Expression nodes double as the executor's runtime representation: the
planner resolves :class:`ColumnRef` nodes in place (filling their
``table`` qualifier), after which
:func:`repro.executor.expressions.evaluate` interprets the same tree
vectorized over batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..datatypes import DataType

#: Aggregate function names recognized by the planner.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})

#: Scalar function names recognized by the evaluator.
SCALAR_FUNCTIONS = frozenset({"abs", "lower", "upper", "length"})


class Expression:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(eq=False)
class ColumnRef(Expression):
    """A (possibly qualified) column reference.

    ``table`` is filled by the planner during name resolution; the
    evaluator looks up ``key`` in the batch.
    """

    name: str
    table: str | None = None

    @property
    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.key})"


@dataclass(eq=False)
class Literal(Expression):
    """A constant; ``dtype=None`` encodes the NULL literal.

    ``slot`` is the index of the literal token a WHERE-clause literal
    was read from (the statement's ``k``-th number or string), which a
    plan-cache template binds a new value into; ``None`` elsewhere.
    """

    value: object
    dtype: DataType | None
    slot: int | None = None

    @classmethod
    def null(cls) -> "Literal":
        return cls(None, None)


@dataclass(eq=False)
class BinaryOp(Expression):
    """Arithmetic (`+ - * / %`), comparison (`= <> < <= > >=`),
    logical (`and or`) or concatenation (`||`)."""

    op: str
    left: Expression
    right: Expression


@dataclass(eq=False)
class UnaryOp(Expression):
    """`-expr` or `NOT expr`."""

    op: str
    operand: Expression


@dataclass(eq=False)
class FunctionCall(Expression):
    """Aggregate or scalar function call; ``COUNT(*)`` uses a Star arg."""

    name: str
    args: list[Expression]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(eq=False)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass(eq=False)
class Between(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(eq=False)
class InList(Expression):
    expr: Expression
    items: list[Expression]
    negated: bool = False


@dataclass(eq=False)
class Like(Expression):
    expr: Expression
    pattern: str
    negated: bool = False


@dataclass(eq=False)
class Star(Expression):
    """``*`` in a select list or ``COUNT(*)``."""


# ----------------------------------------------------------------------
# Statement nodes.
# ----------------------------------------------------------------------


@dataclass
class SelectItem:
    expr: Expression
    alias: str | None = None


@dataclass
class TableRef:
    name: str
    alias: str | None = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass
class JoinClause:
    table: TableRef
    condition: Expression
    kind: str = "inner"  # inner | left


@dataclass
class OrderItem:
    expr: Expression
    ascending: bool = True


@dataclass
class SelectStatement:
    items: list[SelectItem]
    distinct: bool = False
    from_table: TableRef | None = None
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    #: The values of the statement's literal tokens (numbers and
    #: strings, in order), as the parser read them.
    literals: tuple = field(default=(), compare=False, repr=False)


# ----------------------------------------------------------------------
# Tree utilities.
# ----------------------------------------------------------------------


def expr_children(expr: Expression) -> list[Expression]:
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, Between):
        return [expr.expr, expr.low, expr.high]
    if isinstance(expr, InList):
        return [expr.expr, *expr.items]
    if isinstance(expr, Like):
        return [expr.expr]
    return []


def walk_expr(expr: Expression) -> Iterator[Expression]:
    """Pre-order traversal of an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(expr_children(node)))


def expr_column_refs(expr: Expression) -> list[ColumnRef]:
    return [n for n in walk_expr(expr) if isinstance(n, ColumnRef)]


def contains_aggregate(expr: Expression) -> bool:
    return any(
        isinstance(n, FunctionCall) and n.is_aggregate for n in walk_expr(expr)
    )


def split_conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[Expression]) -> Expression | None:
    """Rebuild a single predicate from conjuncts (inverse of split)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for c in conjuncts[1:]:
        result = BinaryOp("and", result, c)
    return result


def expr_to_sql(expr: Expression) -> str:
    """Render an expression back to SQL-ish text (EXPLAIN output)."""
    if isinstance(expr, ColumnRef):
        return expr.key
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if expr.dtype is DataType.TEXT:
            escaped = str(expr.value).replace("'", "''")
            return f"'{escaped}'"
        return str(expr.value)
    if isinstance(expr, BinaryOp):
        op = {"and": "AND", "or": "OR"}.get(expr.op, expr.op)
        return f"({expr_to_sql(expr.left)} {op} {expr_to_sql(expr.right)})"
    if isinstance(expr, UnaryOp):
        op = "NOT " if expr.op == "not" else "-"
        return f"({op}{expr_to_sql(expr.operand)})"
    if isinstance(expr, FunctionCall):
        inner = ", ".join(expr_to_sql(a) for a in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name.upper()}({distinct}{inner})"
    if isinstance(expr, IsNull):
        maybe_not = " NOT" if expr.negated else ""
        return f"({expr_to_sql(expr.operand)} IS{maybe_not} NULL)"
    if isinstance(expr, Between):
        maybe_not = "NOT " if expr.negated else ""
        return (
            f"({expr_to_sql(expr.expr)} {maybe_not}BETWEEN "
            f"{expr_to_sql(expr.low)} AND {expr_to_sql(expr.high)})"
        )
    if isinstance(expr, InList):
        maybe_not = "NOT " if expr.negated else ""
        items = ", ".join(expr_to_sql(i) for i in expr.items)
        return f"({expr_to_sql(expr.expr)} {maybe_not}IN ({items}))"
    if isinstance(expr, Like):
        maybe_not = "NOT " if expr.negated else ""
        return f"({expr_to_sql(expr.expr)} {maybe_not}LIKE '{expr.pattern}')"
    if isinstance(expr, Star):
        return "*"
    return repr(expr)


def select_to_sql(stmt: SelectStatement) -> str:
    """Render a full statement back to parseable SQL.

    The inverse of :func:`repro.sql.parser.parse_select` for the
    supported subset (modulo whitespace and redundant parentheses):
    the sharding layer rewrites statements — stripped ORDER BY,
    decomposed aggregates, hidden sort columns — and ships the result
    to shard servers as text, so the rendering must round-trip.
    """
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    rendered_items = []
    for item in stmt.items:
        text = expr_to_sql(item.expr)
        if item.alias is not None:
            text += f" AS {item.alias}"
        rendered_items.append(text)
    parts.append(", ".join(rendered_items))
    if stmt.from_table is not None:
        parts.append(f"FROM {stmt.from_table.name}")
        if stmt.from_table.alias is not None:
            parts.append(stmt.from_table.alias)
    for join in stmt.joins:
        kind = "LEFT JOIN" if join.kind == "left" else "JOIN"
        parts.append(f"{kind} {join.table.name}")
        if join.table.alias is not None:
            parts.append(join.table.alias)
        parts.append(f"ON {expr_to_sql(join.condition)}")
    if stmt.where is not None:
        parts.append(f"WHERE {expr_to_sql(stmt.where)}")
    if stmt.group_by:
        parts.append(
            "GROUP BY " + ", ".join(expr_to_sql(e) for e in stmt.group_by)
        )
    if stmt.having is not None:
        parts.append(f"HAVING {expr_to_sql(stmt.having)}")
    if stmt.order_by:
        keys = ", ".join(
            expr_to_sql(o.expr) + ("" if o.ascending else " DESC")
            for o in stmt.order_by
        )
        parts.append(f"ORDER BY {keys}")
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    if stmt.offset:
        parts.append(f"OFFSET {stmt.offset}")
    return " ".join(parts)
