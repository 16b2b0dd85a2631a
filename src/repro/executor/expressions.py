"""Vectorized expression evaluation with SQL three-valued logic.

:func:`evaluate` interprets a planned expression tree over a
:class:`repro.batch.Batch`, producing a :class:`ColumnVector`.  NULL
semantics follow SQL: comparisons and arithmetic propagate NULL;
AND/OR use Kleene logic; ``WHERE`` keeps rows whose predicate is TRUE
(not NULL).
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from ..batch import Batch, ColumnVector, recode, unify_dictionaries
from ..datatypes import DataType, parse_date
from ..errors import ExecutionError
from ..sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
)

_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "/", "%"}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


# ----------------------------------------------------------------------
# Static type inference (planner-side).
# ----------------------------------------------------------------------


def infer_type(expr: Expression, types: dict[str, DataType]) -> DataType:
    """Result type of ``expr`` given the input column types."""
    if isinstance(expr, ColumnRef):
        try:
            return types[expr.key]
        except KeyError:
            raise ExecutionError(f"unknown column {expr.key!r}") from None
    if isinstance(expr, Literal):
        return expr.dtype if expr.dtype is not None else DataType.TEXT
    if isinstance(expr, BinaryOp):
        if expr.op in ("and", "or") or expr.op in _COMPARISONS:
            return DataType.BOOLEAN
        if expr.op == "||":
            return DataType.TEXT
        left = infer_type(expr.left, types)
        right = infer_type(expr.right, types)
        # An untyped NULL operand takes the other one's type.
        if _is_null(expr.left):
            left = right
        elif _is_null(expr.right):
            right = left
        return _arith_dtype(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return DataType.BOOLEAN
        return infer_type(expr.operand, types)
    if isinstance(expr, (IsNull, Between, InList, Like)):
        return DataType.BOOLEAN
    if isinstance(expr, FunctionCall):
        return _function_type(expr, types)
    raise ExecutionError(f"cannot infer type of {expr!r}")


def _function_type(call: FunctionCall, types: dict[str, DataType]) -> DataType:
    name = call.name
    if name == "count":
        return DataType.INTEGER
    if name == "avg":
        return DataType.FLOAT
    if name in ("sum", "min", "max"):
        arg = call.args[0]
        if isinstance(arg, Star):
            raise ExecutionError(f"{name.upper()}(*) is not valid SQL")
        return infer_type(arg, types)
    if name == "abs":
        return infer_type(call.args[0], types)
    if name in ("lower", "upper"):
        return DataType.TEXT
    if name == "length":
        return DataType.INTEGER
    raise ExecutionError(f"unknown function {name!r}")


# ----------------------------------------------------------------------
# Literal normalization (date coercion etc.).
# ----------------------------------------------------------------------


def normalize_expression(
    expr: Expression, types: dict[str, DataType]
) -> Expression:
    """Coerce text literals compared against DATE columns into day numbers.

    Lets users write ``WHERE d >= '2012-01-01'`` without the DATE
    keyword, as PostgreSQL does.  The tree is rewritten in place (nodes
    are not shared across statements).
    """
    if isinstance(expr, BinaryOp):
        normalize_expression(expr.left, types)
        normalize_expression(expr.right, types)
        if expr.op in _COMPARISONS:
            _coerce_date_pair(expr.left, expr.right, types)
            _coerce_date_pair(expr.right, expr.left, types)
    elif isinstance(expr, UnaryOp):
        normalize_expression(expr.operand, types)
    elif isinstance(expr, Between):
        normalize_expression(expr.expr, types)
        _coerce_date_pair(expr.expr, expr.low, types)
        _coerce_date_pair(expr.expr, expr.high, types)
    elif isinstance(expr, InList):
        normalize_expression(expr.expr, types)
        for item in expr.items:
            _coerce_date_pair(expr.expr, item, types)
    elif isinstance(expr, IsNull):
        normalize_expression(expr.operand, types)
    elif isinstance(expr, Like):
        normalize_expression(expr.expr, types)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            if not isinstance(arg, Star):
                normalize_expression(arg, types)
    return expr


def _coerce_date_pair(
    side: Expression, literal: Expression, types: dict[str, DataType]
) -> None:
    if not isinstance(literal, Literal) or literal.dtype is not DataType.TEXT:
        return
    try:
        side_type = infer_type(side, types)
    except ExecutionError:
        return
    if side_type is DataType.DATE:
        literal.value = parse_date(literal.value)
        literal.dtype = DataType.DATE


# ----------------------------------------------------------------------
# Runtime evaluation.
# ----------------------------------------------------------------------


def evaluate(expr: Expression, batch: Batch) -> ColumnVector:
    """Evaluate ``expr`` over every row of ``batch``."""
    n = batch.num_rows
    if isinstance(expr, ColumnRef):
        return batch.column(expr.key)
    if isinstance(expr, Literal):
        return _literal_vector(expr, n)
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, batch)
    if isinstance(expr, UnaryOp):
        return _evaluate_unary(expr, batch)
    if isinstance(expr, IsNull):
        operand = evaluate(expr.operand, batch)
        values = (
            ~operand.null_mask if expr.negated else operand.null_mask.copy()
        )
        return ColumnVector(
            DataType.BOOLEAN, values, np.zeros(n, dtype=np.bool_)
        )
    if isinstance(expr, Between):
        return _evaluate_between(expr, batch)
    if isinstance(expr, InList):
        return _evaluate_in(expr, batch)
    if isinstance(expr, Like):
        return _evaluate_like(expr, batch)
    if isinstance(expr, FunctionCall):
        return _evaluate_scalar_function(expr, batch)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def predicate_mask(expr: Expression, batch: Batch) -> np.ndarray:
    """WHERE semantics: True only where the predicate is TRUE and not NULL."""
    (result,) = _operands([expr], batch, DataType.BOOLEAN)
    if result.dtype is not DataType.BOOLEAN:
        raise ExecutionError(
            f"predicate evaluates to {result.dtype.value}, expected boolean"
        )
    return np.asarray(result.values, dtype=np.bool_) & ~result.null_mask


def _is_null(expr: Expression) -> bool:
    """Is ``expr`` the untyped ``NULL`` literal?"""
    return isinstance(expr, Literal) and expr.dtype is None


def _null_vector(dtype: DataType, n: int) -> ColumnVector:
    values = np.zeros(n, dtype=dtype.numpy_dtype)
    return ColumnVector(dtype, values, np.ones(n, dtype=np.bool_))


def _operands(
    exprs: list[Expression], batch: Batch, default: DataType
) -> list[ColumnVector]:
    """Evaluate the operands of one operator.  An untyped ``NULL`` takes
    the type of the first typed operand (``default`` when there is
    none): SQL's NULL of unknown type yields NULL, never a type error."""
    vectors = [None if _is_null(e) else evaluate(e, batch) for e in exprs]
    dtype = next((v.dtype for v in vectors if v is not None), default)
    return [
        _null_vector(dtype, batch.num_rows) if v is None else v
        for v in vectors
    ]


def _literal_vector(lit: Literal, n: int) -> ColumnVector:
    dtype = lit.dtype
    if dtype is None:  # NULL literal: TEXT unless an operator types it
        return _null_vector(DataType.TEXT, n)
    if dtype is DataType.TEXT:
        return _text_vector(np.zeros(n, dtype=np.int32), [lit.value])
    values = np.full(n, lit.value, dtype=dtype.numpy_dtype)
    return ColumnVector(dtype, values, np.zeros(n, dtype=np.bool_))


def _evaluate_binary(expr: BinaryOp, batch: Batch) -> ColumnVector:
    if expr.op in ("and", "or"):
        return _evaluate_logical(expr, batch)
    left, right = _operands([expr.left, expr.right], batch, DataType.INTEGER)
    if expr.op in _COMPARISONS:
        return _compare(expr.op, left, right)
    if expr.op in _ARITHMETIC:
        return _arithmetic(expr.op, left, right)
    if expr.op == "||":
        return _concat(left, right)
    raise ExecutionError(f"unknown binary operator {expr.op!r}")


def _evaluate_logical(expr: BinaryOp, batch: Batch) -> ColumnVector:
    left, right = _operands([expr.left, expr.right], batch, DataType.BOOLEAN)
    for side in (left, right):
        if side.dtype is not DataType.BOOLEAN:
            raise ExecutionError(
                f"{expr.op.upper()} operand is {side.dtype.value}, "
                "expected boolean"
            )
    l_val = np.asarray(left.values, dtype=np.bool_)
    r_val = np.asarray(right.values, dtype=np.bool_)
    l_null, r_null = left.null_mask, right.null_mask
    if expr.op == "and":
        values = l_val & r_val & ~l_null & ~r_null
        # NULL unless one side is definitely FALSE.
        definite_false = (~l_null & ~l_val) | (~r_null & ~r_val)
        nulls = (l_null | r_null) & ~definite_false
    else:
        values = (l_val & ~l_null) | (r_val & ~r_null)
        definite_true = (~l_null & l_val) | (~r_null & r_val)
        nulls = (l_null | r_null) & ~definite_true
    return ColumnVector(DataType.BOOLEAN, values, nulls)


def _numeric_pair(
    left: ColumnVector, right: ColumnVector
) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(left.values), np.asarray(right.values)


def _compare(op: str, left: ColumnVector, right: ColumnVector) -> ColumnVector:
    nulls = left.null_mask | right.null_mask
    if left.dtype is DataType.TEXT or right.dtype is DataType.TEXT:
        if left.dtype is not right.dtype:
            raise ExecutionError(
                f"cannot compare {left.dtype.value} with {right.dtype.value}"
            )
        l, r = _text_codes(left, right)
    else:
        _check_comparable(left.dtype, right.dtype)
        l, r = _numeric_pair(left, right)
    if op == "=":
        values = l == r
    elif op == "<>":
        values = l != r
    elif op == "<":
        values = l < r
    elif op == "<=":
        values = l <= r
    elif op == ">":
        values = l > r
    else:
        values = l >= r
    values = np.asarray(values, dtype=np.bool_) & ~nulls
    return ColumnVector(DataType.BOOLEAN, values, nulls.copy())


def _text_codes(
    left: ColumnVector, right: ColumnVector
) -> tuple[np.ndarray, np.ndarray]:
    """Codes of two TEXT vectors that compare as their strings do: both
    recoded into one unified dictionary (against a literal, a binary
    search of its one string in the column's dictionary — the column's
    codes stand unless the string is new to it)."""
    left, right = left.narrowed(), right.narrowed()
    __, (l_map, r_map) = unify_dictionaries(
        [left.dictionary, right.dictionary]
    )
    return recode(left.values, l_map), recode(right.values, r_map)


def _check_comparable(left: DataType, right: DataType) -> None:
    groups = {
        DataType.INTEGER: "num",
        DataType.FLOAT: "num",
        DataType.DATE: "date",
        DataType.BOOLEAN: "bool",
        DataType.TEXT: "text",
    }
    lg, rg = groups[left], groups[right]
    # Allow INTEGER literals against DATE columns (day arithmetic).
    if lg == rg or {lg, rg} == {"num", "date"}:
        return
    raise ExecutionError(f"cannot compare {left.value} with {right.value}")


def _arithmetic(
    op: str, left: ColumnVector, right: ColumnVector
) -> ColumnVector:
    if left.dtype is DataType.TEXT or right.dtype is DataType.TEXT:
        raise ExecutionError(f"arithmetic {op!r} on text operands")
    nulls = left.null_mask | right.null_mask
    l, r = _numeric_pair(left, right)
    if op == "/":
        zero_div = r == 0
        if l.dtype == object:
            # An AVG's exact partial SUM past int64: Python's int / int,
            # as one engine's AVG divides it.
            values = (l / np.where(zero_div, 1, r)).astype(np.float64)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                values = l.astype(np.float64) / r.astype(np.float64)
        nulls = nulls | zero_div
        values = np.where(zero_div, 0.0, values)
        return ColumnVector(DataType.FLOAT, values, nulls)
    if op == "%":
        zero_div = r == 0
        safe_r = np.where(zero_div, 1, r)
        # SQL's remainder takes the dividend's sign (numpy's ``%``
        # would take the divisor's).
        values = np.fmod(l, safe_r)
        dtype = _arith_dtype(op, left.dtype, right.dtype)
        return ColumnVector(dtype, values, nulls | zero_div)
    if op == "+":
        values = l + r
    elif op == "-":
        values = l - r
    else:
        values = l * r
    if values.dtype.kind == "i":
        _check_int64(op, l, r, values, nulls)
    dtype = _arith_dtype(op, left.dtype, right.dtype)
    return ColumnVector(dtype, values, nulls)


def _check_int64(
    op: str,
    l: np.ndarray,
    r: np.ndarray,
    values: np.ndarray,
    nulls: np.ndarray,
) -> None:
    """Raise where a non-NULL ``l op r`` left int64 and ``values``
    wrapped around (PostgreSQL's "bigint out of range").  A sum or
    difference wrapped where its sign contradicts its operands'; a
    product can only have where its float64 estimate reaches 2**62,
    and those rows are multiplied again exactly."""
    if op == "+":
        wrapped = np.any((((l ^ values) & (r ^ values)) < 0) & ~nulls)
    elif op == "-":
        wrapped = np.any((((l ^ r) & (l ^ values)) < 0) & ~nulls)
    else:
        estimate = np.abs(l.astype(np.float64) * r.astype(np.float64))
        rows = np.flatnonzero((estimate >= 2.0**62) & ~nulls)
        wrapped = any(
            not _INT64_MIN <= a * b <= _INT64_MAX
            for a, b in zip(l[rows].tolist(), r[rows].tolist())
        )
    if wrapped:
        raise ExecutionError(f"{op!r} result is out of INTEGER range")


def _arith_dtype(op: str, left: DataType, right: DataType) -> DataType:
    """Result type of ``left op right`` for an arithmetic ``op``."""
    if op == "/":
        return DataType.FLOAT
    if left is DataType.DATE and right is DataType.DATE and op == "-":
        return DataType.INTEGER  # date - date = days
    if DataType.DATE in (left, right) and op in ("+", "-"):
        return DataType.DATE
    if DataType.FLOAT in (left, right):
        return DataType.FLOAT
    return DataType.INTEGER


def _concat(left: ColumnVector, right: ColumnVector) -> ColumnVector:
    return ColumnVector.from_texts(
        [
            None if a is None or b is None else str(a) + str(b)
            for a, b in zip(left.to_pylist(), right.to_pylist())
        ]
    )


def _text_vector(codes: np.ndarray, texts: list[str]) -> ColumnVector:
    """A TEXT vector whose row ``i`` is ``texts[codes[i]]`` (``texts``
    need be neither sorted nor distinct)."""
    encoded = ColumnVector.from_texts(texts)
    return ColumnVector(
        DataType.TEXT,
        encoded.values[codes] if len(texts) else codes,
        np.zeros(len(codes), dtype=np.bool_),
        encoded.dictionary,
    )


def _evaluate_unary(expr: UnaryOp, batch: Batch) -> ColumnVector:
    default = DataType.BOOLEAN if expr.op == "not" else DataType.TEXT
    (operand,) = _operands([expr.operand], batch, default)
    if expr.op == "not":
        if operand.dtype is not DataType.BOOLEAN:
            raise ExecutionError("NOT expects a boolean operand")
        values = (
            ~np.asarray(operand.values, dtype=np.bool_) & ~operand.null_mask
        )
        return ColumnVector(DataType.BOOLEAN, values, operand.null_mask.copy())
    if expr.op == "-":
        if not operand.dtype.is_numeric:
            raise ExecutionError("unary minus expects a numeric operand")
        values = np.asarray(operand.values)
        if values.dtype.kind == "i" and np.any(
            (values == _INT64_MIN) & ~operand.null_mask
        ):
            raise ExecutionError("'-' result is out of INTEGER range")
        return ColumnVector(operand.dtype, -values, operand.null_mask.copy())
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _evaluate_between(expr: Between, batch: Batch) -> ColumnVector:
    value, low, high = _operands(
        [expr.expr, expr.low, expr.high], batch, DataType.INTEGER
    )
    ge = _compare(">=", value, low)
    le = _compare("<=", value, high)
    result = _evaluate_logical_pair("and", ge, le)
    if expr.negated:
        return _negate_bool(result)
    return result


def _evaluate_logical_pair(
    op: str, left: ColumnVector, right: ColumnVector
) -> ColumnVector:
    # Kleene logic over already-evaluated operands.
    l_val = np.asarray(left.values, dtype=np.bool_)
    r_val = np.asarray(right.values, dtype=np.bool_)
    l_null, r_null = left.null_mask, right.null_mask
    if op == "and":
        values = l_val & r_val & ~l_null & ~r_null
        definite_false = (~l_null & ~l_val) | (~r_null & ~r_val)
        nulls = (l_null | r_null) & ~definite_false
    else:
        values = (l_val & ~l_null) | (r_val & ~r_null)
        definite_true = (~l_null & l_val) | (~r_null & r_val)
        nulls = (l_null | r_null) & ~definite_true
    return ColumnVector(DataType.BOOLEAN, values, nulls)


def _negate_bool(vec: ColumnVector) -> ColumnVector:
    values = ~np.asarray(vec.values, dtype=np.bool_) & ~vec.null_mask
    return ColumnVector(DataType.BOOLEAN, values, vec.null_mask.copy())


def _evaluate_in(expr: InList, batch: Batch) -> ColumnVector:
    has_null_item = any(
        isinstance(i, Literal) and i.value is None for i in expr.items
    )
    concrete = [
        i
        for i in expr.items
        if not (isinstance(i, Literal) and i.value is None)
    ]
    value, *items = _operands([expr.expr, *concrete], batch, DataType.INTEGER)
    n = len(value)
    matched = np.zeros(n, dtype=np.bool_)
    for item_vec in items:
        eq = _compare("=", value, item_vec)
        matched |= np.asarray(eq.values, dtype=np.bool_) & ~eq.null_mask
    nulls = value.null_mask.copy()
    if has_null_item:
        nulls = nulls | ~matched  # unknown unless definitely matched
    values = matched & ~nulls
    result = ColumnVector(DataType.BOOLEAN, values, nulls)
    return _negate_bool(result) if expr.negated else result


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    regex = []
    for ch in pattern:
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.compile("^" + "".join(regex) + "$", re.DOTALL)


def _evaluate_like(expr: Like, batch: Batch) -> ColumnVector:
    value = evaluate(expr.expr, batch)
    if value.dtype is not DataType.TEXT:
        raise ExecutionError("LIKE expects a text operand")
    rx = _like_regex(expr.pattern)
    nulls = value.null_mask.copy()
    values = _per_string(value, lambda t: rx.match(t) is not None, np.bool_)
    result = ColumnVector(DataType.BOOLEAN, values & ~nulls, nulls)
    return _negate_bool(result) if expr.negated else result


def _evaluate_scalar_function(
    call: FunctionCall, batch: Batch
) -> ColumnVector:
    if call.is_aggregate:
        raise ExecutionError(
            f"aggregate {call.name.upper()} used outside GROUP BY context"
        )
    if call.name == "abs":
        operand = evaluate(call.args[0], batch)
        if not operand.dtype.is_numeric:
            raise ExecutionError("ABS expects a numeric operand")
        return ColumnVector(
            operand.dtype,
            np.abs(np.asarray(operand.values)),
            operand.null_mask.copy(),
        )
    operand = evaluate(call.args[0], batch)
    if operand.dtype is not DataType.TEXT:
        raise ExecutionError(f"{call.name.upper()} expects a text operand")
    nulls = operand.null_mask.copy()
    if call.name == "length":
        values = _per_string(operand, len, np.int64)
        values = np.where(nulls, 0, values)
        return ColumnVector(DataType.INTEGER, values, nulls)
    transform = str.lower if call.name == "lower" else str.upper
    operand = operand.narrowed()
    texts = list(map(transform, operand.dictionary.tolist()))
    vector = _text_vector(operand.values, texts)
    return ColumnVector(DataType.TEXT, vector.values, nulls, vector.dictionary)


def _per_string(vector: ColumnVector, func, dtype) -> np.ndarray:
    """``func`` of every row's string, run once per dictionary entry
    and gathered by code (NULL rows get the result of code 0)."""
    vector = vector.narrowed()
    results = np.fromiter(
        map(func, vector.dictionary.tolist()), dtype, len(vector.dictionary)
    )
    if not len(results):
        return np.zeros(len(vector), dtype=dtype)
    return results[vector.values]
