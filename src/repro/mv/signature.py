"""Normalized query signatures: the MV subsystem's unit of identity.

Two aggregate queries that scan the same table, group by the same
dimensions, filter by the same conjuncts and compute the same aggregate
calls are *the same workload item* — regardless of select-list order,
aliasing, or which of HAVING/ORDER BY/LIMIT decorate them (those run
above the aggregate and are re-applied on every serve).  The analyzer
mines frequencies per signature and the catalog matches materialized
aggregates against them, both keyed by :class:`QuerySignature`.

Normalization renders each dimension, filter conjunct and aggregate
argument back to SQL with table qualifiers stripped
(``t.region`` and ``region`` agree), so the signature is stable across
aliases.  ``COUNT(*)`` uses ``"*"`` as its argument key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..executor.operators import PARTIALS
from ..sql.ast import (
    Expression,
    SelectStatement,
    Star,
    contains_aggregate,
    expr_column_refs,
    split_conjuncts,
)
from ..sql.planner import (
    aggregate_calls,
    aggregate_key,
    is_aggregate_query,
    normalize_sql,
)


@dataclass(frozen=True)
class QuerySignature:
    """One mined aggregate-query shape (hashable, order-normalized)."""

    table: str
    #: Sorted, deduplicated normalized GROUP BY expressions.
    dims: tuple[str, ...]
    #: Sorted, deduplicated normalized WHERE conjuncts.
    filters: tuple[str, ...]
    #: Sorted ``(func, arg_sql)`` pairs; ``arg_sql == "*"`` is COUNT(*).
    aggs: tuple[tuple[str, str], ...]
    #: Per-conjunct referenced column names (for dim-applicability
    #: checks during wider-MV matching).  Derived from ``filters``, so
    #: it never changes equality.
    filter_columns: tuple[tuple[str, tuple[str, ...]], ...]

    def label(self) -> str:
        """Compact human-readable form for panels and logs."""
        dims = ", ".join(self.dims) or "<global>"
        aggs = ", ".join(
            f"{f}({a})" for f, a in self.aggs
        ) or "<dims only>"
        where = f" where {' and '.join(self.filters)}" if self.filters else ""
        return f"{self.table}[{dims}; {aggs}{where}]"


def extract_signature(
    stmt: SelectStatement, table_name: str
) -> QuerySignature | None:
    """The statement's signature, or ``None`` when MV-ineligible.

    Eligible means: a single-table aggregate query (caller guarantees
    no joins), no ``SELECT *``, no nested aggregates, and only
    aggregates that travel as partials (:data:`PARTIALS`, no DISTINCT).
    The statement must already be resolved.
    """
    if any(isinstance(item.expr, Star) for item in stmt.items):
        return None
    if not is_aggregate_query(stmt):
        return None

    aggs: set[tuple[str, str]] = set()
    for node in aggregate_calls(stmt):
        if node.distinct or node.name not in PARTIALS:
            return None
        if any(
            contains_aggregate(a)
            for a in node.args
            if not isinstance(a, Star)
        ):
            return None  # nested aggregate: the raw path raises anyway
        func, arg = aggregate_key(node)
        if func != "count" and arg == "*":
            return None  # e.g. SUM(*): the raw path raises anyway
        aggs.add((func, arg))

    dims = tuple(sorted({normalize_sql(g) for g in stmt.group_by}))
    conjuncts: dict[str, Expression] = {}
    for conjunct in split_conjuncts(stmt.where):
        conjuncts.setdefault(normalize_sql(conjunct), conjunct)
    filters = tuple(sorted(conjuncts))
    filter_columns = tuple(
        (
            sql,
            tuple(
                sorted({r.name for r in expr_column_refs(conjuncts[sql])})
            ),
        )
        for sql in filters
    )
    return QuerySignature(
        table=table_name,
        dims=dims,
        filters=filters,
        aggs=tuple(sorted(aggs)),
        filter_columns=filter_columns,
    )
