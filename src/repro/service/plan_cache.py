"""The engine-wide plan cache: statement templates keyed by shape.

A statement's *shape* is its text with each literal lifted out
(:func:`repro.sql.lexer.lift_literals`), so ``WHERE id = 7`` and
``WHERE id = 8`` share one.  A :class:`Template` is what planning one
statement of a shape built: the plan with every raw scan replaced by
its recipe, and the literals a hit may change — its *slots* — marked.
A hit binds the new values into a copy of the plan and skips the lexer,
parser and planner.

Slots are the WHERE-clause literals that reach the finished plan
unchanged.  Every other literal is *fixed*: a hit must match its value
exactly, and statements that differ only in fixed values get templates
of their own.  Fixed are LIMIT / OFFSET and ordinals, LIKE patterns,
``DATE '...'``, a number folded with a unary minus, text coerced to a
date, select-list and HAVING literals — and every literal of a plan
whose shape the values chose (:attr:`LogicalPlan.literal_shaped`).  Of
those, only a level MV hit is cached: the service re-serves its
signature on every hit (mining and hit counters unchanged) and reuses
it only while that verdict names the same entry, kind and watermark.

A template holds no :class:`repro.core.raw_scan.RawScan` and no batch:
a hit rebuilds each scan through the statement's own scan factory and
re-binds an MV leaf to the verdict's batch, so an evicted MV is
collectable while its statement stays cached.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..core.raw_scan import RawScan
from ..datatypes import DataType
from ..executor.operators import AggregateSpec, MVScan, Operator
from ..sql.ast import Expression, Literal, SelectStatement, expr_children
from ..sql.lexer import lift_literals
from ..sql.planner import LogicalPlan, transform_expr

#: Most templates kept (least recently used out first).  A constant,
#: not a knob: a template is a resolved statement plus a few operators.
PLAN_CACHE_ENTRIES = 256

#: The type a lifted value's literal has in a plan, by the value's type.
_DTYPES = {int: DataType.INTEGER, float: DataType.FLOAT, str: DataType.TEXT}


@dataclass(frozen=True, eq=False)
class ScanRecipe(Operator):
    """A template's stand-in for one raw scan: what to build it from."""

    table: str
    columns: tuple[str, ...]
    predicate: Expression | None
    row_from: int


def _literals(value, found: list[Literal]) -> list[Literal]:
    """``found`` extended by the slotted literals in one operator
    attribute's value."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _literals(item, found)
    elif isinstance(value, Literal):
        if value.slot is not None:
            found.append(value)
    elif isinstance(value, Expression):
        for child in expr_children(value):
            _literals(child, found)
    elif isinstance(value, AggregateSpec):
        _literals(value.arg, found)
    return found


def _bind(value, substitute: Callable):
    """A copy of one operator attribute's value, ``substitute`` applied
    to each of its expressions' nodes (see :func:`transform_expr`)."""
    if isinstance(value, Expression):
        return transform_expr(value, substitute)
    if isinstance(value, (list, tuple)):
        return type(value)(_bind(item, substitute) for item in value)
    if isinstance(value, AggregateSpec):
        return dataclasses.replace(value, arg=_bind(value.arg, substitute))
    return value


def _operators(op: Operator):
    yield op
    for child in op.children():
        yield from _operators(child)


@dataclass(frozen=True, eq=False)
class Template:
    """One cached statement shape."""

    #: ``(shape, fixed positions, their values)``: the cache key.
    key: tuple
    #: The tables the statement reads (locks and reconcile).
    tables: tuple[str, ...]
    #: The plan, its scans replaced by :class:`ScanRecipe` and its MV
    #: leaf bound to no batch.  ``shape.stmt`` is the resolved statement.
    shape: LogicalPlan
    #: Lifted literal indexes a hit binds.
    slots: frozenset[int]
    #: ``id(operator of shape)`` -> its attributes that hold a slot.
    sites: dict[int, tuple[str, ...]]

    @property
    def reads_mv(self) -> bool:
        return self.shape.mv_id is not None

    def _substitute(self, values: tuple) -> Callable:
        slots = self.slots

        def substitute(node: Expression) -> Expression | None:
            if isinstance(node, Literal) and node.slot in slots:
                return Literal(values[node.slot], node.dtype, node.slot)
            return None

        return substitute

    def statement(self, values: tuple) -> SelectStatement:
        """The resolved statement with ``values`` bound."""
        stmt = self.shape.stmt
        if not self.slots:  # slots are WHERE literals
            return stmt
        where = _bind(stmt.where, self._substitute(values))
        return dataclasses.replace(stmt, where=where)

    def bind(
        self, values: tuple, scan_factory: Callable, signature=None
    ) -> LogicalPlan:
        """The plan with ``values`` bound: one fresh copy of every
        expression holding a slot, and every scan built anew by
        ``scan_factory``; the plan's MV signature is ``signature``."""
        substitute = self._substitute(values)
        sites = self.sites

        def operator(op: Operator) -> Operator | dict:
            attrs = sites.get(id(op), ())
            if isinstance(op, ScanRecipe):
                predicate = op.predicate
                if attrs:
                    predicate = _bind(predicate, substitute)
                return scan_factory(
                    op.table, list(op.columns), predicate, row_from=op.row_from
                )
            return {
                name: _bind(getattr(op, name), substitute) for name in attrs
            }

        plan = self.shape.rebound(operator)
        plan.mv_signature = signature
        return plan

    def serving(self, match) -> LogicalPlan | None:
        """A level MV hit's plan over ``match`` (the statement's serve
        verdict), or ``None`` when the verdict no longer fits it."""
        shape = self.shape
        if (
            match is None
            or match.lagging
            or match.kind != shape.mv_decision
            or match.entry.mv_id != shape.mv_id
        ):
            return None
        batch = match.batch
        return shape.rebound(
            lambda op: op.serving(batch) if isinstance(op, MVScan) else None
        )


def template_of(
    lifted: tuple[str, tuple],
    tables: tuple[str, ...],
    plan: LogicalPlan,
    scans: list,
) -> Template | None:
    """The template of ``plan``, just planned for a statement lifted
    as ``lifted``, or ``None`` when it cannot be reused: it scans, and
    the literals chose its shape (a capture, an MV tail merge, joins
    ordered by statistics)."""
    if plan.literal_shaped and scans:
        return None

    def recipe(op: Operator) -> Operator | None:
        if isinstance(op, RawScan):
            return ScanRecipe(
                op.state.entry.name,
                tuple(op.output_columns),
                op.predicate,
                op.row_from,
            )
        if isinstance(op, MVScan):
            return op.serving(None)
        return None

    shape = plan.rebound(recipe)
    shape_text, values = lifted
    # Each operator attribute holding slotted literals, and those.
    held = []
    if values and not plan.literal_shaped:
        for op in _operators(shape.root):
            for name, value in vars(op).items():
                if not isinstance(value, Operator):
                    found = _literals(value, [])
                    if found:
                        held.append((op, name, found))
    # A slot is kept when each of its literals reached the plan as read.
    kept: dict[int, bool] = {}
    for __, __, found in held:
        for lit in found:
            k = lit.slot
            as_read = (
                lit.dtype is _DTYPES[type(values[k])]
                and lit.value == values[k]
            )
            kept[k] = kept.get(k, True) and as_read
    slots = frozenset(k for k, ok in kept.items() if ok)
    sites: dict[int, tuple[str, ...]] = {}
    for op, name, found in held:
        if any(lit.slot in slots for lit in found):
            sites[id(op)] = (*sites.get(id(op), ()), name)
    fixed = tuple(k for k in range(len(values)) if k not in slots)
    key = (shape_text, fixed, tuple(values[k] for k in fixed))
    return Template(key, tables, shape, slots, sites)


class PlanCache:
    """A bounded LRU of :class:`Template` keyed by statement shape and
    fixed values, shared by every session of one service."""

    def __init__(self, registry, capacity: int = PLAN_CACHE_ENTRIES) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._templates: OrderedDict[tuple, Template] = OrderedDict()
        #: shape -> {fixed positions: templates with them}, the most
        #: fixed first: a level MV hit's template before its shape's
        #: raw one.
        self._fixed: dict[str, dict[tuple, int]] = {}
        #: Bumped by :meth:`clear`: a plan made over the catalog as it
        #: was before (a table since dropped or registered anew) is
        #: not cached after it.
        self.epoch = 0
        self._hits = registry.counter("plan_cache_hits_total")
        self._misses = registry.counter("plan_cache_misses_total")
        self._evictions = registry.counter("plan_cache_evictions_total")

    def _find(self, lifted: tuple[str, tuple] | None) -> Template | None:
        if lifted is None:
            return None
        shape, values = lifted
        for fixed in self._fixed.get(shape, ()):
            key = (shape, fixed, tuple([values[k] for k in fixed]))
            template = self._templates.get(key)
            if template is not None:
                return template
        return None

    def get(self, lifted: tuple[str, tuple] | None) -> Template | None:
        """The template serving ``lifted`` (``None`` for an unliftable
        statement, which always misses)."""
        with self._lock:
            template = self._find(lifted)
            if template is not None:
                self._templates.move_to_end(template.key)
        (self._misses if template is None else self._hits).inc()
        return template

    def put(
        self,
        lifted: tuple[str, tuple],
        tables: tuple[str, ...],
        plan: LogicalPlan,
        scans: list,
        epoch: int,
    ) -> None:
        """Cache the template of ``plan`` (see :func:`template_of`),
        planned since :attr:`epoch` read ``epoch``."""
        template = template_of(lifted, tables, plan, scans)
        if template is None:
            return
        key = template.key
        shape, fixed, __ = key
        with self._lock:
            if epoch != self.epoch:
                return
            if key not in self._templates:
                counts = self._fixed.setdefault(shape, {})
                counts[fixed] = counts.get(fixed, 0) + 1
                self._fixed[shape] = dict(
                    sorted(counts.items(), key=lambda kv: -len(kv[0]))
                )
            self._templates[key] = template
            self._templates.move_to_end(key)
            evicted = max(len(self._templates) - self.capacity, 0)
            for __ in range(evicted):
                self._forget(self._templates.popitem(last=False)[0])
        if evicted:
            self._evictions.inc(evicted)

    def _forget(self, key: tuple) -> None:
        shape, fixed, __ = key
        counts = self._fixed[shape]
        counts[fixed] -= 1
        if not counts[fixed]:
            del counts[fixed]
            if not counts:
                del self._fixed[shape]

    def discard(self, template: Template) -> None:
        """Drop ``template`` if it is still cached."""
        with self._lock:
            if self._templates.get(template.key) is template:
                del self._templates[template.key]
                self._forget(template.key)

    def clear(self) -> None:
        with self._lock:
            self._templates.clear()
            self._fixed.clear()
            self.epoch += 1

    def __contains__(self, sql: str) -> bool:
        with self._lock:
            return self._find(lift_literals(sql)) is not None

    def __len__(self) -> int:
        return len(self._templates)
