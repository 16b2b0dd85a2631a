"""Relational operators over batches.

A Volcano pipeline of batches: each operator exposes
``execute() -> Iterator[Batch]`` and ``output_types()``.  Scan, filter,
project and aggregate work an array at a time — :class:`HashAggregate`
factorizes group keys and folds arguments with numpy kernels, leaving
Python only DISTINCT and TEXT MIN/MAX; :class:`HashJoin`, :class:`Sort`
and :class:`Distinct` still walk Python rows.  These operators are
deliberately engine-agnostic — they sit above either a
:class:`repro.core.raw_scan.RawScan` (PostgresRaw) or a binary-storage
scan (conventional baselines) and never know which.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..batch import Batch, ColumnVector
from ..datatypes import DataType
from ..errors import ExecutionError
from ..sql.ast import BinaryOp, ColumnRef, Expression, Star
from .expressions import evaluate, infer_type, predicate_mask


class Operator:
    """Base class: a node of the physical plan."""

    def execute(self) -> Iterator[Batch]:
        raise NotImplementedError

    def output_types(self) -> dict[str, DataType]:
        raise NotImplementedError

    def explain_lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children():
            lines.extend(child.explain_lines(indent + 1))
        return lines

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> list["Operator"]:
        return []


class BatchSource(Operator):
    """Adapter turning a batch factory into an operator (scan leaves)."""

    def __init__(
        self,
        factory: Callable[[], Iterator[Batch]],
        types: dict[str, DataType],
        label: str = "BatchSource",
    ) -> None:
        self._factory = factory
        self._types = types
        self._label = label

    def execute(self) -> Iterator[Batch]:
        return self._factory()

    def output_types(self) -> dict[str, DataType]:
        return dict(self._types)

    def describe(self) -> str:
        return self._label


class SingleRowSource(Operator):
    """One row, no columns — the input of a FROM-less SELECT."""

    def execute(self) -> Iterator[Batch]:
        yield Batch({}, num_rows=1)

    def output_types(self) -> dict[str, DataType]:
        return {}


class Filter(Operator):
    def __init__(self, child: Operator, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def execute(self) -> Iterator[Batch]:
        for batch in self.child.execute():
            if batch.num_rows == 0:
                continue
            keep = predicate_mask(self.predicate, batch)
            if keep.all():
                yield batch
            elif keep.any():
                yield batch.filter(keep)

    def output_types(self) -> dict[str, DataType]:
        return self.child.output_types()

    def describe(self) -> str:
        from ..sql.ast import expr_to_sql

        return f"Filter [{expr_to_sql(self.predicate)}]"

    def children(self) -> list[Operator]:
        return [self.child]


class Project(Operator):
    """Compute named expressions; also performs column renaming."""

    def __init__(
        self, child: Operator, items: list[tuple[str, Expression]]
    ) -> None:
        if not items:
            raise ExecutionError("projection needs at least one item")
        names = [n for n, __ in items]
        if len(set(names)) != len(names):
            raise ExecutionError(f"duplicate output column names: {names}")
        self.child = child
        self.items = items

    def execute(self) -> Iterator[Batch]:
        for batch in self.child.execute():
            yield Batch(
                {name: evaluate(expr, batch) for name, expr in self.items}
            )

    def output_types(self) -> dict[str, DataType]:
        child_types = self.child.output_types()
        return {
            name: infer_type(expr, child_types) for name, expr in self.items
        }

    def describe(self) -> str:
        return f"Project [{', '.join(n for n, __ in self.items)}]"

    def children(self) -> list[Operator]:
        return [self.child]


class HashJoin(Operator):
    """Hash join on equality keys; build side = right child.

    NULL keys never match (SQL semantics).  ``kind='left'`` emits
    unmatched probe rows padded with NULLs.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        kind: str = "inner",
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("join needs matching, non-empty key lists")
        if kind not in ("inner", "left"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.kind = kind

    def output_types(self) -> dict[str, DataType]:
        types = self.left.output_types()
        right_types = self.right.output_types()
        overlap = set(types) & set(right_types)
        if overlap:
            raise ExecutionError(
                f"join children share column names: {overlap}"
            )
        types.update(right_types)
        return types

    def execute(self) -> Iterator[Batch]:
        build_batch = Batch.concat(list(self.right.execute()))
        right_types = self.right.output_types()
        table = self._build_table(build_batch)
        for probe in self.left.execute():
            if probe.num_rows == 0:
                continue
            out = self._probe(probe, build_batch, right_types, table)
            if out is not None and out.num_rows:
                yield out

    def _build_table(self, build: Batch) -> dict[tuple, list[int]]:
        table: dict[tuple, list[int]] = {}
        if build.num_rows == 0:
            return table
        key_columns = [build.column(k) for k in self.right_keys]
        key_lists = [c.to_pylist() for c in key_columns]
        for row in range(build.num_rows):
            key = tuple(kl[row] for kl in key_lists)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(row)
        return table

    def _probe(
        self,
        probe: Batch,
        build: Batch,
        right_types: dict[str, DataType],
        table: dict[tuple, list[int]],
    ) -> Batch | None:
        key_lists = [probe.column(k).to_pylist() for k in self.left_keys]
        probe_idx: list[int] = []
        build_idx: list[int] = []
        unmatched: list[int] = []
        for row in range(probe.num_rows):
            key = tuple(kl[row] for kl in key_lists)
            matches = None if any(v is None for v in key) else table.get(key)
            if matches:
                probe_idx.extend([row] * len(matches))
                build_idx.extend(matches)
            elif self.kind == "left":
                unmatched.append(row)

        parts: list[Batch] = []
        if probe_idx:
            left_part = probe.take(np.asarray(probe_idx, dtype=np.int64))
            right_part = build.take(np.asarray(build_idx, dtype=np.int64))
            combined = dict(left_part.columns)
            combined.update(right_part.columns)
            parts.append(Batch(combined))
        if unmatched:
            left_part = probe.take(np.asarray(unmatched, dtype=np.int64))
            combined = dict(left_part.columns)
            for name, dtype in right_types.items():
                values = np.zeros(len(unmatched), dtype=dtype.numpy_dtype)
                if dtype is DataType.TEXT:
                    values.fill(None)
                combined[name] = ColumnVector(
                    dtype, values, np.ones(len(unmatched), dtype=np.bool_)
                )
            parts.append(Batch(combined))
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return Batch.concat(parts)

    def describe(self) -> str:
        pairs = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin({self.kind}) [{pairs}]"

    def children(self) -> list[Operator]:
        return [self.left, self.right]


@dataclass
class AggregateSpec:
    """One aggregate output: ``name := func(arg)``; ``arg=None`` = COUNT(*)."""

    name: str
    func: str  # count | sum | avg | min | max
    arg: Expression | None
    distinct: bool = False


_INT64_MAX = np.iinfo(np.int64).max
#: The one NaN object FLOAT group keys are mapped to, so NaN keys are
#: equal (tuples compare by identity first) within and across batches.
_NAN = float("nan")

#: func -> (folding ufunc, its identity over FLOAT, over int64).
#: ``fmin``/``fmax`` ignore NaN: a NaN never beats a number, so a
#: FLOAT MIN/MAX does not depend on row order.
_FOLDS = {
    "sum": (np.add, 0.0, 0),
    "sum0": (np.add, 0.0, 0),
    "avg": (np.add, 0.0, 0),
    "min": (np.fmin, np.nan, _INT64_MAX),
    "max": (np.fmax, np.nan, -_INT64_MAX - 1),
}

#: Aggregate -> the partial aggregates it travels as (see
#: :func:`partial_aggregate`).
PARTIALS = {
    "count": ("count",),
    "sum": ("sum",),
    "min": ("min",),
    "max": ("max",),
    "avg": ("sum", "count"),
}

#: Partial aggregate -> the function that folds partials of it into one.
REAGGREGATE = {"count": "sum0", "sum": "sum", "min": "min", "max": "max"}


def partial_aggregate(
    func: str, component: Callable[[str, str], Expression]
) -> Expression:
    """The partial-aggregate algebra, the one place it is written.

    An aggregate computed in parts — an MV's stored groups and an
    append's tail, or the shards of a cluster — ships each part as
    partial aggregates (:data:`PARTIALS`) and folds the partials of all
    parts into one:

    * AVG ships SUM and COUNT; COUNT, SUM, MIN and MAX ship themselves.
    * COUNT re-aggregates with ``sum0`` (no partials at all is a count
      of 0, not NULL); SUM, MIN and MAX with themselves (SUM over only
      NULLs stays NULL).
    * AVG's final value is the re-summed SUM divided by the re-summed
      COUNT (NULL over no rows).

    ``component(partial, reagg)`` is called once per partial ``func``
    ships, in :data:`PARTIALS` order, with the function that folds it;
    it returns an expression reading the folded partial.  The result is
    ``func``'s final value over those expressions.
    """
    folded = [component(part, REAGGREGATE[part]) for part in PARTIALS[func]]
    if func == "avg":
        total, count = folded
        return BinaryOp("/", total, count)
    (value,) = folded
    return value


def _grown(array: np.ndarray, size: int, fill: object) -> np.ndarray:
    """``array`` extended with ``fill`` to ``size`` slots (doubling)."""
    if size <= len(array):
        return array
    out = np.full(max(size, 2 * len(array)), fill, dtype=array.dtype)
    out[: len(array)] = array
    return out


def _key_codes(vector: ColumnVector) -> tuple[np.ndarray, int]:
    """Integer codes of one key column, and their exclusive upper bound.

    Two rows get the same code exactly when their keys are equal; NULL
    is a code of its own.
    """
    n = len(vector)
    if vector.dtype is DataType.TEXT:
        # No numpy hash for str: a dict (driven from C by ``map``) is
        # ~5x faster than np.unique's object sort.  A string's code is
        # the row it first appears in.
        first_row: dict[object, int] = {}
        codes = np.fromiter(
            map(first_row.setdefault, vector.values.tolist(), range(n)),
            dtype=np.int64,
            count=n,
        )
        bound = n
    else:
        uniques, codes = np.unique(vector.values, return_inverse=True)
        bound = len(uniques)
    if vector.null_mask.any():
        codes = np.where(vector.null_mask, bound, codes)
        bound += 1
    return codes, bound


class _ColumnarAggregate:
    """One aggregate's state as arrays indexed by operator-wide group id.

    ``count`` is the per-group number of non-NULL arguments (of rows,
    for ``COUNT(*)``) and ``value`` the running SUM / MIN / MAX; a
    batch is folded into both with one ``ufunc.at`` each, which applies
    rows in order — so a FLOAT sum is the same left-to-right sum
    however the input is cut into batches.  While there is one group
    (a global aggregate, or a GROUP BY that has met one key so far),
    order cannot matter for a count or for an exact INTEGER sum still
    held in int64: a count adds the batch's length and the sum adds
    ``values.sum()``.  FLOAT SUM / AVG and MIN / MAX keep ``ufunc.at``.
    No Python runs per row.
    """

    def __init__(
        self, func: str, arg: Expression | None, arg_type: DataType | None
    ) -> None:
        self.func = func
        self.arg = arg
        self.count = np.zeros(0, dtype=np.int64)
        self.ufunc = None
        if func != "count":
            self.ufunc, float_identity, int_identity = _FOLDS[func]
            is_float = arg_type is DataType.FLOAT
            self.identity = float_identity if is_float else int_identity
            self.value = np.zeros(
                0, dtype=np.float64 if is_float else np.int64
            )
            # INTEGER sums must be exact: ``magnitude`` bounds every
            # group's |sum| so far, and once it could pass int64 the
            # state switches to Python ints (an object array).
            self.exact_sum = self.ufunc is np.add and not is_float
            self.magnitude = 0

    def _reserve(self, n_groups: int) -> None:
        self.count = _grown(self.count, n_groups, 0)
        if self.ufunc is not None:
            self.value = _grown(self.value, n_groups, self.identity)

    def fold(self, batch: Batch, group_ids: np.ndarray, n_groups: int) -> None:
        """Add one batch whose row ``i`` belongs to ``group_ids[i]``."""
        self._reserve(n_groups)
        if self.arg is None:  # COUNT(*)
            self._count(group_ids, n_groups)
            return
        vector = evaluate(self.arg, batch)
        values = vector.values
        if vector.null_mask.any():
            valid = ~vector.null_mask
            values, group_ids = values[valid], group_ids[valid]
        self._count(group_ids, n_groups)
        if self.ufunc is None:
            return
        if self.exact_sum and len(values):
            self.magnitude += len(values) * max(
                int(values.max()), -int(values.min())
            )
            if self.magnitude > _INT64_MAX and self.value.dtype != object:
                self.value = self.value.astype(object)
        if n_groups == 1 and self.exact_sum and self.value.dtype != object:
            # Exact and bounded by ``magnitude``: order cannot matter.
            self.value[0] += values.sum(dtype=np.int64)
            return
        self.ufunc.at(
            self.value, group_ids, values.astype(self.value.dtype, copy=False)
        )

    def _count(self, group_ids: np.ndarray, n_groups: int) -> None:
        if n_groups == 1:
            self.count[0] += len(group_ids)
        else:
            np.add.at(self.count, group_ids, 1)

    def result(self, n_groups: int, dtype: DataType) -> ColumnVector:
        self._reserve(n_groups)
        count = self.count[:n_groups]
        if self.func == "count":
            return ColumnVector.from_values(dtype, count)
        value = self.value[:n_groups]
        if self.func == "avg":
            value = value / np.maximum(count, 1)
        # SUM defaulting to 0 over empty input (``sum0``): the
        # re-aggregation of stored COUNT components must yield 0, not
        # NULL, when every MV group is filtered away (as raw COUNT).
        null = (count == 0) & (self.func != "sum0")
        return ColumnVector(
            dtype, np.where(null, 0, value).astype(dtype.numpy_dtype), null
        )


class _RowAggregate:
    """The per-row fallback for what has no numpy kernel: DISTINCT
    COUNT / SUM / AVG (per group, a dict as an ordered set of the
    values seen, summed at the end in first-seen order) and MIN / MAX
    over TEXT (per group, the best ``str`` so far).  Same interface as
    :class:`_ColumnarAggregate`."""

    def __init__(self, func: str, arg: Expression) -> None:
        self.func = func
        self.arg = arg
        self.best_of = {"min": operator.lt, "max": operator.gt}.get(func)
        self.groups: list = []

    def _reserve(self, n_groups: int) -> None:
        self.groups.extend(
            None if self.best_of else {}
            for __ in range(n_groups - len(self.groups))
        )

    def fold(self, batch: Batch, group_ids: np.ndarray, n_groups: int) -> None:
        self._reserve(n_groups)
        groups, best_of = self.groups, self.best_of
        values = evaluate(self.arg, batch).to_pylist()
        for gid, value in zip(group_ids.tolist(), values):
            if value is None:
                continue
            if best_of is None:
                groups[gid][value] = None
            elif groups[gid] is None or best_of(value, groups[gid]):
                groups[gid] = value

    def result(self, n_groups: int, dtype: DataType) -> ColumnVector:
        self._reserve(n_groups)
        return ColumnVector.from_pylist(
            dtype, [self._final(group) for group in self.groups]
        )

    def _final(self, group: object) -> object:
        if self.best_of:
            return group
        if self.func == "count":
            return len(group)
        if not group and self.func != "sum0":
            return None
        total = sum(group)
        return total / len(group) if self.func == "avg" else total


class HashAggregate(Operator):
    """Hash aggregation with optional grouping keys.

    With no GROUP BY, produces exactly one row (even over empty input,
    per SQL semantics: ``COUNT(*)`` of nothing is 0).  Groups come out
    in the order their first rows arrived; NULL keys form one group,
    and so do NaN keys.

    Columnar: each batch's keys are factorized into group ids
    (:meth:`_group_ids`) and every aggregate folds the batch into
    arrays indexed by group id (:class:`_ColumnarAggregate`); only
    DISTINCT and TEXT MIN/MAX go row by row (:class:`_RowAggregate`).
    """

    def __init__(
        self,
        child: Operator,
        group_items: list[tuple[str, Expression]],
        aggregates: list[AggregateSpec],
    ) -> None:
        self.child = child
        self.group_items = group_items
        self.aggregates = aggregates

    def output_types(self) -> dict[str, DataType]:
        child_types = self.child.output_types()
        types = {
            name: infer_type(expr, child_types)
            for name, expr in self.group_items
        }
        for spec in self.aggregates:
            types[spec.name] = self._agg_type(spec, child_types)
        return types

    def _agg_type(
        self, spec: AggregateSpec, child_types: dict[str, DataType]
    ) -> DataType:
        if spec.func == "count":
            return DataType.INTEGER
        if spec.arg is None or isinstance(spec.arg, Star):
            raise ExecutionError(f"{spec.func.upper()} needs an argument")
        arg_type = infer_type(spec.arg, child_types)
        if spec.func == "avg":
            return DataType.FLOAT
        if spec.func in ("sum", "sum0", "min", "max"):
            if spec.func in ("sum", "sum0") and not arg_type.is_numeric:
                raise ExecutionError("SUM expects a numeric argument")
            return arg_type
        raise ExecutionError(f"unknown aggregate {spec.func!r}")

    def execute(self) -> Iterator[Batch]:
        child_types = self.child.output_types()
        out_types = self.output_types()
        states = [self._state(spec, child_types) for spec in self.aggregates]
        # Key tuple -> group id, in first-appearance (= output) order.
        index: dict[tuple, int] = {}
        n_groups = 0 if self.group_items else 1
        for batch in self.child.execute():
            if batch.num_rows == 0:
                continue
            group_ids = self._group_ids(batch, index)
            n_groups = max(n_groups, len(index))
            for state in states:
                state.fold(batch, group_ids, n_groups)

        columns = {
            name: ColumnVector.from_pylist(
                out_types[name], [key[i] for key in index]
            )
            for i, (name, __) in enumerate(self.group_items)
        }
        for spec, state in zip(self.aggregates, states):
            try:
                columns[spec.name] = state.result(
                    n_groups, out_types[spec.name]
                )
            except OverflowError:  # an exact sum too large for int64
                raise ExecutionError(
                    f"{spec.func.upper()} result is out of INTEGER range"
                ) from None
        yield Batch(columns, num_rows=n_groups)

    @staticmethod
    def _state(
        spec: AggregateSpec, child_types: dict[str, DataType]
    ) -> "_ColumnarAggregate | _RowAggregate":
        if spec.arg is None or isinstance(spec.arg, Star):
            return _ColumnarAggregate(spec.func, None, None)
        arg_type = infer_type(spec.arg, child_types)
        if spec.func in ("min", "max"):  # where DISTINCT changes nothing
            per_row = arg_type is DataType.TEXT
        else:
            per_row = spec.distinct
        if per_row:
            return _RowAggregate(spec.func, spec.arg)
        return _ColumnarAggregate(spec.func, spec.arg, arg_type)

    def _group_ids(
        self, batch: Batch, index: dict[tuple, int]
    ) -> np.ndarray:
        """The operator-wide group id of every row of ``batch``.

        Keys not seen before are added to ``index`` in the order their
        first rows appear; Python touches each of the batch's distinct
        keys once, never each row.
        """
        if not self.group_items:
            return np.zeros(batch.num_rows, dtype=np.intp)
        vectors = [evaluate(expr, batch) for __, expr in self.group_items]
        combined, bound = _key_codes(vectors[0])
        for vector in vectors[1:]:
            column_codes, width = _key_codes(vector)
            if bound * width > _INT64_MAX:
                # Re-densify so the mixed-radix code still fits int64.
                combined = np.unique(combined, return_inverse=True)[1]
                bound = batch.num_rows
            combined = combined * width + column_codes
            bound *= width
        # As uint8 / uint16 the sort inside np.unique is a radix sort.
        __, first, codes = np.unique(
            combined.astype(np.min_scalar_type(bound - 1)),
            return_index=True,
            return_inverse=True,
        )
        key_columns = [v.take(first).to_pylist() for v in vectors]
        for vector, column in zip(vectors, key_columns):
            if vector.dtype is DataType.FLOAT:
                column[:] = [_NAN if v != v else v for v in column]
        keys = list(zip(*key_columns))
        ids = np.empty(len(keys), dtype=np.intp)
        order = np.argsort(first)
        if not index:
            # The first batch: every key is new, in appearance order.
            ids[order] = np.arange(len(keys))
            in_order = map(keys.__getitem__, order.tolist())
            index.update(zip(in_order, range(len(keys))))
        else:
            for local in order.tolist():
                ids[local] = index.setdefault(keys[local], len(index))
        return ids[codes]

    def describe(self) -> str:
        keys = ", ".join(n for n, __ in self.group_items) or "<global>"
        aggs = ", ".join(f"{s.func}->{s.name}" for s in self.aggregates)
        return f"HashAggregate [keys: {keys}; aggs: {aggs}]"

    def children(self) -> list[Operator]:
        return [self.child]


class MVScan(Operator):
    """Serve a stored materialized-aggregate batch.

    An entry level with its table is served as stored — no raw-file
    scan.  One that lags it (rows were appended since it was built or
    last advanced) comes with ``tail``: the entry's own aggregate
    planned over the table rows past its watermark.  The tail's groups
    are re-aggregated with the stored ones by :func:`partial_aggregate`,
    the merged batch is what is served, and ``on_merged`` receives it
    for the deferred install.  ``aggs`` maps ``(func, arg)`` to the
    stored column name; every other stored column is a group key.
    """

    def __init__(
        self,
        batch: Batch,
        types: dict[str, DataType],
        label: str = "MVScan",
        tail: Operator | None = None,
        aggs: dict[tuple[str, str], str] | None = None,
        on_merged: Callable[[Batch], None] | None = None,
    ) -> None:
        self._batch = batch
        self._types = types
        self._label = label
        self._tail = tail
        self._aggs = aggs or {}
        self._on_merged = on_merged

    def serving(self, batch: Batch | None) -> "MVScan":
        """This (level, tail-less) leaf re-bound to another batch of
        the same entry."""
        return MVScan(batch, self._types, self._label)

    def execute(self) -> Iterator[Batch]:
        if self._tail is None:
            yield self._batch
            return
        merged = self._merge()
        if self._on_merged is not None:
            self._on_merged(merged)
        yield merged

    def _merge(self) -> Batch:
        aggs = self._aggs
        # Stored partial column -> the spec folding it; stored aggregate
        # column -> its final value over the folded partials.
        folds: dict[str, AggregateSpec] = {}
        finals: dict[str, Expression] = {}

        def fold(arg: str, part: str, reagg: str) -> Expression:
            name = aggs[(part, arg)]
            if name not in folds:
                folds[name] = AggregateSpec(name, reagg, ColumnRef(name))
            return ColumnRef(name)

        for (func, arg), name in aggs.items():
            finals[name] = partial_aggregate(
                func, functools.partial(fold, arg)
            )
        dims = [name for name in self._types if name not in finals]
        names = dims + list(folds)
        stored = self._batch.select(names)
        source = BatchSource(
            lambda: itertools.chain((stored,), self._tail.execute()),
            {name: self._types[name] for name in names},
        )
        (merged,) = HashAggregate(
            source,
            [(name, ColumnRef(name)) for name in dims],
            list(folds.values()),
        ).execute()
        for name, final in finals.items():
            if name not in folds:  # not itself a partial: AVG
                merged = merged.with_column(name, evaluate(final, merged))
        return merged.select(list(self._types))

    def output_types(self) -> dict[str, DataType]:
        return dict(self._types)

    def describe(self) -> str:
        return self._label

    def children(self) -> list[Operator]:
        return [] if self._tail is None else [self._tail]


class MVCapture(Operator):
    """Tee a finished aggregate toward materialization.

    Wraps the raw ``HashAggregate``, timing the child's consumption —
    the scan+aggregate seconds a future MV hit saves, which becomes the
    entry's governed benefit — and hands the complete result to
    ``sink(batch, elapsed_seconds)``.  Downstream sees the batch minus
    ``drop`` columns (capture-only AVG components the query itself did
    not request), so query output is unchanged by the capture.
    """

    def __init__(
        self,
        child: Operator,
        sink: Callable[[Batch, float], None],
        drop: tuple[str, ...] = (),
        label: str = "MVCapture",
    ) -> None:
        self.child = child
        self._sink = sink
        self._drop = tuple(drop)
        self._label = label

    def execute(self) -> Iterator[Batch]:
        start = time.perf_counter()
        batches = list(self.child.execute())
        elapsed = time.perf_counter() - start
        if len(batches) == 1:
            full = batches[0]
        elif not batches:
            types = self.child.output_types()
            full = Batch(
                {
                    name: ColumnVector.from_pylist(dtype, [])
                    for name, dtype in types.items()
                }
            )
        else:
            names = batches[0].column_names()
            full = Batch(
                {
                    name: ColumnVector.concat(
                        [b.column(name) for b in batches]
                    )
                    for name in names
                }
            )
        self._sink(full, elapsed)
        if self._drop:
            yield Batch(
                {
                    name: vector
                    for name, vector in full.columns.items()
                    if name not in self._drop
                },
                num_rows=full.num_rows,
            )
        else:
            yield full

    def output_types(self) -> dict[str, DataType]:
        return {
            name: dtype
            for name, dtype in self.child.output_types().items()
            if name not in self._drop
        }

    def describe(self) -> str:
        return self._label

    def children(self) -> list[Operator]:
        return [self.child]


class Sort(Operator):
    """Full materializing sort; ASC = NULLS LAST, DESC = NULLS FIRST."""

    def __init__(
        self, child: Operator, keys: list[tuple[Expression, bool]]
    ) -> None:
        if not keys:
            raise ExecutionError("sort needs at least one key")
        self.child = child
        self.keys = keys

    def output_types(self) -> dict[str, DataType]:
        return self.child.output_types()

    def execute(self) -> Iterator[Batch]:
        batches = list(self.child.execute())
        if not batches:
            return
        data = Batch.concat(batches)
        if data.num_rows == 0:
            yield data
            return
        order = list(range(data.num_rows))
        # Stable multi-key sort: apply keys from minor to major.
        for expr, ascending in reversed(self.keys):
            vector = evaluate(expr, data)
            values = vector.to_pylist()

            def sort_key(i: int, values=values) -> tuple:
                v = values[i]
                return (v is None, 0 if v is None else v)

            order.sort(key=sort_key, reverse=not ascending)
        yield data.take(np.asarray(order, dtype=np.int64))

    def describe(self) -> str:
        return f"Sort [{len(self.keys)} keys]"

    def children(self) -> list[Operator]:
        return [self.child]


class Limit(Operator):
    def __init__(
        self, child: Operator, limit: int | None, offset: int = 0
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset or 0

    def output_types(self) -> dict[str, DataType]:
        return self.child.output_types()

    def execute(self) -> Iterator[Batch]:
        to_skip = self.offset
        remaining = self.limit
        for batch in self.child.execute():
            if to_skip:
                if batch.num_rows <= to_skip:
                    to_skip -= batch.num_rows
                    continue
                batch = batch.slice(to_skip, batch.num_rows)
                to_skip = 0
            if remaining is None:
                yield batch
                continue
            if remaining <= 0:
                return
            if batch.num_rows > remaining:
                batch = batch.slice(0, remaining)
            remaining -= batch.num_rows
            if batch.num_rows:
                yield batch
            if remaining == 0:
                return

    def describe(self) -> str:
        return f"Limit [{self.limit} offset {self.offset}]"

    def children(self) -> list[Operator]:
        return [self.child]


class Distinct(Operator):
    """Streaming duplicate elimination over whole rows."""

    def __init__(self, child: Operator) -> None:
        self.child = child

    def output_types(self) -> dict[str, DataType]:
        return self.child.output_types()

    def execute(self) -> Iterator[Batch]:
        seen: set[tuple] = set()
        for batch in self.child.execute():
            if batch.num_rows == 0:
                continue
            keep = np.zeros(batch.num_rows, dtype=np.bool_)
            lists = [v.to_pylist() for v in batch.columns.values()]
            for row in range(batch.num_rows):
                key = tuple(l[row] for l in lists)
                if key not in seen:
                    seen.add(key)
                    keep[row] = True
            if keep.any():
                yield batch.filter(keep)

    def children(self) -> list[Operator]:
        return [self.child]
