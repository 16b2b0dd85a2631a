"""Synopses: per-window min, max and NULL count of a binary column.

Paper §3.3 builds statistics "on-the-fly ... only on requested
attributes"; a synopsis is the same idea at window granularity, and a
by-product of reads the engine already does.  The cache and the
columnstore tier summarize a column when they admit it (windows of the
scan's ``batch_size`` rows), the "DBMS X" columnstore when it loads
(``ZONE_BLOCK_ROWS``-row blocks, its zone maps), and an append
re-derives only the tail window.

A :class:`Synopsis` covers one INTEGER, FLOAT or DATE column: per window
its smallest and largest non-NULL value, in the column's own dtype, and
its NULL count.  NaN is not a bound (``np.fmin`` / ``np.fmax`` skip
it): no comparison holds for a NaN, so a window of nothing but NaNs and
NULLs cannot qualify for any interval.  TEXT zone maps are still parked
(TEXT is dictionary codes now, but codes are only comparable within one
dictionary, and a window's bounds would have to be strings); BOOLEAN is
not summarized.

:func:`column_intervals` turns a predicate's top-level ``col op
literal``, ``BETWEEN`` and ``IN`` conjuncts into :class:`Interval`\\ s,
and :meth:`Synopsis.possible` says which windows may hold a value inside
one of them.  The comparison is the evaluator's own — numpy's, with the
literal typed as :func:`repro.executor.expressions.evaluate` types it —
and rounding is monotone, so a window it rules out holds no row the
predicate keeps (an int64 above 2**53 against a FLOAT literal compares
as the evaluator compares it: in float64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..batch import ColumnVector
from ..datatypes import DataType
from ..sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
    split_conjuncts,
)

#: The column (and literal) types a synopsis summarizes.
_SUMMARIZED = frozenset({DataType.INTEGER, DataType.FLOAT, DataType.DATE})

#: ``lit op col`` is ``col flipped[op] lit``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass(frozen=True, slots=True, eq=False)
class Synopsis:
    """Per-window min / max / NULL count of one column's rows
    ``[0, rows)``, in windows of ``window_rows`` rows (the last may be
    short).  Immutable: :meth:`extended` returns a new one."""

    window_rows: int
    rows: int
    mins: np.ndarray
    maxs: np.ndarray
    nulls: np.ndarray

    @classmethod
    def of(cls, vector: ColumnVector, window_rows: int) -> "Synopsis | None":
        """The synopsis of ``vector`` (``None`` for a type it does not
        summarize)."""
        if vector.dtype not in _SUMMARIZED:
            return None
        return cls(
            window_rows,
            len(vector),
            *_summarize(vector.values, vector.null_mask, window_rows, 0),
        )

    @property
    def nbytes(self) -> int:
        return self.mins.nbytes + self.maxs.nbytes + self.nulls.nbytes

    def extended(self, tail: ColumnVector) -> "Synopsis":
        """The synopsis of these rows followed by ``tail``'s: the tail's
        first rows fold into the short last window, the rest form new
        windows."""
        if not len(tail):
            return self
        w = self.window_rows
        fill = min(-self.rows % w, len(tail))
        mins, maxs, nulls = _summarize(tail.values, tail.null_mask, w, fill)
        if fill:
            mins[0] = np.fmin(mins[0], self.mins[-1])
            maxs[0] = np.fmax(maxs[0], self.maxs[-1])
            nulls[0] += self.nulls[-1]
            keep = slice(0, -1)
        else:
            keep = slice(None)
        return Synopsis(
            w,
            self.rows + len(tail),
            np.concatenate([self.mins[keep], mins]),
            np.concatenate([self.maxs[keep], maxs]),
            np.concatenate([self.nulls[keep], nulls]),
        )

    def possible(self, intervals: list["Interval"]) -> np.ndarray:
        """Per window: may one of its non-NULL values lie in one of
        ``intervals``?  ``False`` proves no row of the window does.  A
        window of NULLs alone holds no value (a short last one fails on
        its bounds: the values a NULL slot takes)."""
        present = self.nulls < self.window_rows
        hit = np.zeros(len(present), dtype=np.bool_)
        for interval in intervals:
            ok = present
            low, high = interval.low, interval.high
            if low is not None:
                ok = ok & (
                    self.maxs >= low
                    if interval.low_inclusive
                    else self.maxs > low
                )
            if high is not None:
                ok = ok & (
                    self.mins <= high
                    if interval.high_inclusive
                    else self.mins < high
                )
            hit |= ok
        return hit


def _summarize(
    values: np.ndarray, nulls: np.ndarray, window_rows: int, first: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window ``(mins, maxs, null counts)`` of ``values``, windows
    starting at row 0, ``first`` (when non-zero) and every
    ``window_rows`` after it.  A NULL slot takes the value that cannot
    win (NaN for floats, the other extreme for integers)."""
    starts = np.arange(first, len(values), window_rows)
    if first:
        starts = np.concatenate([[0], starts])
    lows = highs = values
    if nulls.any():
        if values.dtype.kind == "f":
            lows = highs = np.where(nulls, np.nan, values)
        else:
            info = np.iinfo(values.dtype)
            lows = np.where(nulls, info.max, values)
            highs = np.where(nulls, info.min, values)
    return (
        np.fmin.reduceat(lows, starts),
        np.fmax.reduceat(highs, starts),
        np.add.reduceat(nulls, starts, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Predicates -> intervals.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Values ``x`` with ``low <(=) x <(=) high``; a ``None`` bound is
    open.  Bounds are 0-d arrays typed like the literal they came from,
    so comparing them against a synopsis is the evaluator's comparison."""

    low: np.ndarray | None = None
    high: np.ndarray | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True


def column_op_literal(
    conjunct: Expression,
) -> tuple[ColumnRef, Literal, str] | None:
    """``col op lit`` or ``lit op col`` (``op`` one of ``= < <= > >=``)
    as ``(col, lit, op)`` with the column on the left; ``None`` for
    anything else, a ``NULL`` literal included."""
    if not isinstance(conjunct, BinaryOp) or conjunct.op not in _FLIPPED:
        return None
    column, literal, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(literal, ColumnRef) and isinstance(column, Literal):
        column, literal, op = literal, column, _FLIPPED[op]
    if (
        isinstance(column, ColumnRef)
        and isinstance(literal, Literal)
        and literal.value is not None
    ):
        return column, literal, op
    return None


def column_intervals(
    predicate: Expression | None,
) -> list[tuple[str, list[Interval]]]:
    """For each top-level conjunct of ``predicate`` a synopsis can test:
    its column's name and the intervals a value of a row the conjunct
    keeps lies in one of.  A row the predicate keeps satisfies every
    conjunct, so a window any one of them rules out can be skipped."""
    return [
        found
        for conjunct in split_conjuncts(predicate)
        if (found := _conjunct_intervals(conjunct)) is not None
    ]


def _conjunct_intervals(
    conjunct: Expression,
) -> tuple[str, list[Interval]] | None:
    hit = column_op_literal(conjunct)
    if hit is not None:
        column, literal, op = hit
        bound = _bound(literal)
        if bound is None:
            return None
        if op == "=":
            interval = Interval(bound, bound)
        elif op in ("<", "<="):
            interval = Interval(high=bound, high_inclusive=op == "<=")
        else:
            interval = Interval(low=bound, low_inclusive=op == ">=")
        return column.name, [interval]
    if not (
        isinstance(conjunct, (Between, InList))
        and not conjunct.negated
        and isinstance(conjunct.expr, ColumnRef)
    ):
        return None
    if isinstance(conjunct, Between):
        low, high = _bound(conjunct.low), _bound(conjunct.high)
        if low is None or high is None:
            return None
        return conjunct.expr.name, [Interval(low, high)]
    # A NULL item never makes a row TRUE: only the others can.
    bounds = [
        _bound(item)
        for item in conjunct.items
        if not (isinstance(item, Literal) and item.value is None)
    ]
    if not bounds or any(b is None for b in bounds):
        return None
    return conjunct.expr.name, [Interval(b, b) for b in bounds]


def _bound(expr: Expression) -> np.ndarray | None:
    """``expr`` as a typed 0-d array, if it is a number or date literal
    the evaluator can represent (``None`` otherwise)."""
    if not isinstance(expr, Literal) or expr.dtype not in _SUMMARIZED:
        return None
    try:
        return np.asarray(expr.value, dtype=expr.dtype.numpy_dtype)
    except (OverflowError, TypeError, ValueError):
        return None
