"""Relational operators over batches.

A Volcano pipeline of batches: each operator exposes
``execute() -> Iterator[Batch]`` and ``output_types()``.  Scan, filter,
project and aggregate work an array at a time — :class:`HashAggregate`
maps group keys to operator-wide ids and folds arguments with numpy
kernels, leaving Python only DISTINCT; :class:`HashJoin`, :class:`Sort`
and :class:`Distinct` still walk Python rows.  These operators are
deliberately engine-agnostic — they sit above either a
:class:`repro.core.raw_scan.RawScan` (PostgresRaw) or a binary-storage
scan (conventional baselines) and never know which.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..batch import Batch, ColumnVector, recode, unify_dictionaries
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
#: Integers of smaller magnitude are exact in float64.
_FLOAT_EXACT = 2**53

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


def _factorize(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True, return_inverse=True)``.

    Integers (and booleans) spanning a range not much wider than their
    count are factorized by direct addressing, with no sort: one
    ``np.minimum.at`` finds each value's first row.
    """
    n = len(values)
    if values.dtype.kind in "biu" and n:
        if values.dtype.kind == "b":
            values = values.view(np.uint8)
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= 2 * n + 1024:
            offsets = (values - low).astype(np.intp)
            first = np.full(span, n, dtype=np.intp)
            np.minimum.at(first, offsets, np.arange(n))
            present = np.flatnonzero(first < n)
            rank = np.zeros(span, dtype=np.intp)
            rank[present] = np.arange(len(present))
            uniques = (present + low).astype(values.dtype)
            return uniques, first[present], rank[offsets]
    return np.unique(values, return_index=True, return_inverse=True)


def _grown(array: np.ndarray, size: int, fill: object) -> np.ndarray:
    """``array`` extended with ``fill`` to ``size`` slots (doubling)."""
    if size <= len(array):
        return array
    out = np.full(max(size, 2 * len(array)), fill, dtype=array.dtype)
    out[: len(array)] = array
    return out


class _KeyColumn:
    """Operator-wide codes of one GROUP BY key column.

    Codes are dense and assigned in the order values first appear, NULL
    taking a code of its own (and, for FLOAT, NaN: ``np.unique`` folds
    every NaN into one value, and ``-0.0`` into ``0.0``).  A batch is
    mapped in one pass per column: TEXT through its dictionary's
    strings (one dict lookup per dictionary entry, no sort), every other
    type by :func:`_factorize` plus a binary search among the values
    seen.  Python runs once per batch and per new string, never per row.
    """

    def __init__(self, dtype: DataType) -> None:
        self.dtype = dtype
        self.count = 0
        self.null_code = -1
        #: Per code, its value (NULL's slot holds a placeholder).
        self.by_code: list | np.ndarray
        if dtype is DataType.TEXT:
            self.index: dict[str, int] = {}
            self.by_code = []
        else:
            self.by_code = np.zeros(0, dtype=dtype.numpy_dtype)
            self.seen = np.zeros(0, dtype=dtype.numpy_dtype)
            self.seen_codes = np.zeros(0, dtype=np.int64)

    def codes(self, vector: ColumnVector) -> np.ndarray:
        """The operator-wide code of every row of ``vector``."""
        if self.dtype is DataType.TEXT:
            return self._text_codes(vector)
        return self._value_codes(vector)

    def _assign(self, known: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Codes for the local keys ``known`` marks ``-1``, in the order
        of their first rows (``first``; a key absent from the batch has
        a first row past its end and gets none).  Returns the new keys'
        local numbers, in code order."""
        new = np.flatnonzero((known < 0) & (first < _INT64_MAX))
        new = new[np.argsort(first[new], kind="stable")]
        known[new] = self.count + np.arange(len(new))
        self.count += len(new)
        return new

    def _text_codes(self, vector: ColumnVector) -> np.ndarray:
        vector = vector.narrowed()
        strings = vector.dictionary.tolist()
        # Local key k < len(strings) is a dictionary entry; NULL is one
        # past them.
        local = vector.values
        known = np.fromiter(
            map(self.index.get, strings, itertools.repeat(-1)),
            np.int64,
            len(strings),
        )
        nulls = vector.null_mask
        if nulls.any():
            local = np.where(nulls, len(strings), local)
            known = np.append(known, self.null_code)
        if (known < 0).any():
            first = np.full(len(known), _INT64_MAX, dtype=np.int64)
            np.minimum.at(first, local, np.arange(len(local)))
            for k in self._assign(known, first).tolist():
                code = int(known[k])
                if k == len(strings):
                    self.null_code = code
                    self.by_code.append(None)
                else:
                    self.index[strings[k]] = code
                    self.by_code.append(strings[k])
        return known[local]

    def _value_codes(self, vector: ColumnVector) -> np.ndarray:
        values, nulls = vector.values, vector.null_mask
        rows = np.flatnonzero(~nulls) if nulls.any() else None
        uniques, first, inverse = _factorize(
            values if rows is None else values[rows]
        )
        if rows is not None:
            first = rows[first]
        at = np.searchsorted(self.seen, uniques)
        hit = at < len(self.seen)
        match = self.seen[at[hit]]
        same = match == uniques[hit]
        if self.dtype is DataType.FLOAT:
            same |= np.isnan(match) & np.isnan(uniques[hit])
        hit[hit] = same
        known = np.full(len(uniques) + 1, -1, dtype=np.int64)
        known[:-1][hit] = self.seen_codes[at[hit]]
        known[-1] = self.null_code
        first = np.append(
            first, int(np.argmax(nulls)) if rows is not None else _INT64_MAX
        )
        new = self._assign(known, first)
        if len(new):
            if (new == len(uniques)).any():
                self.null_code = int(known[-1])
            # A key's value is that of the row it first appeared in
            # (``-0.0`` or ``0.0``); NULL's is whatever its row holds.
            self.by_code = np.concatenate([self.by_code, values[first[new]]])
            inserted = np.sort(new[new < len(uniques)])
            spots = at[inserted]
            self.seen = np.insert(self.seen, spots, uniques[inserted])
            self.seen_codes = np.insert(
                self.seen_codes, spots, known[inserted]
            )
        if rows is None:
            return known[:-1][inverse]
        codes = np.full(len(values), known[-1], dtype=np.int64)
        codes[rows] = known[:-1][inverse]
        return codes

    def vector(self, codes: np.ndarray) -> ColumnVector:
        """The key column of groups whose codes are ``codes``."""
        if self.dtype is DataType.TEXT:
            return ColumnVector.from_texts(self.by_code).take(codes)
        null = codes == self.null_code
        return ColumnVector(self.dtype, self.by_code[codes], null)


class _PairTable:
    """Dense ids of ``(a, b)`` code pairs, assigned in the order pairs
    first appear: a sorted array of the pairs seen (as ``a << 32 | b``)
    beside their ids."""

    def __init__(self) -> None:
        self.count = 0
        self.keys = np.zeros(0, dtype=np.int64)
        self.ids = np.zeros(0, dtype=np.int64)

    def lookup(
        self, a: np.ndarray, a_bound: int, b: np.ndarray, b_bound: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every row's pair id, and the first rows of the pairs that
        got new ids (in id order)."""
        # Mixed radix within the batch (dense, so usually factorized
        # without a sort).
        uniques, first, inverse = _factorize(a * b_bound + b)
        keys = (uniques // b_bound) << 32 | (uniques % b_bound)
        at = np.searchsorted(self.keys, keys)
        hit = at < len(self.keys)
        hit[hit] = self.keys[at[hit]] == keys[hit]
        ids = np.empty(len(uniques), dtype=np.int64)
        ids[hit] = self.ids[at[hit]]
        new = np.flatnonzero(~hit)
        by_row = new[np.argsort(first[new], kind="stable")]
        ids[by_row] = self.count + np.arange(len(new))
        self.count += len(new)
        self.keys = np.insert(self.keys, at[new], keys[new])
        self.ids = np.insert(self.ids, at[new], ids[new])
        return ids[inverse], first[by_row]


class _GroupIndex:
    """Operator-wide group ids: per key column a :class:`_KeyColumn`,
    and for composite keys a chain of :class:`_PairTable`\\ s combining
    them.  Ids are dense, in the order groups first appear; a single
    key's codes are its group ids.  The key columns of the output come
    from here: per group, each column's code."""

    def __init__(self, dtypes: list[DataType]) -> None:
        self.columns = [_KeyColumn(dtype) for dtype in dtypes]
        self.pairs = [_PairTable() for __ in dtypes[1:]]
        self.group_codes = [np.zeros(0, dtype=np.int64) for __ in dtypes]
        self.n_groups = 0

    def ids(self, vectors: list[ColumnVector]) -> np.ndarray:
        codes = [col.codes(v) for col, v in zip(self.columns, vectors)]
        if not self.pairs:
            self.n_groups = self.columns[0].count
            return codes[0]
        ids, bound = codes[0], self.columns[0].count
        for pairs, column, column_codes in zip(
            self.pairs, self.columns[1:], codes[1:]
        ):
            ids, new_rows = pairs.lookup(
                ids, bound, column_codes, column.count
            )
            bound = pairs.count
        self.group_codes = [
            np.concatenate([held, column_codes[new_rows]])
            for held, column_codes in zip(self.group_codes, codes)
        ]
        self.n_groups = bound
        return ids

    def key_vectors(self) -> list[ColumnVector]:
        if not self.pairs:
            return [self.columns[0].vector(np.arange(self.n_groups))]
        return [
            column.vector(codes)
            for column, codes in zip(self.columns, self.group_codes)
        ]


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
    ``values.sum()``.  With more groups, counts and INTEGER sums whose
    bound stays below 2**53 are added per batch by ``np.bincount``.
    FLOAT SUM / AVG and MIN / MAX keep ``ufunc.at``.
    TEXT MIN / MAX fold dictionary codes: ``value`` holds codes into
    ``dictionary``, which only keeps the strings some group holds, and
    each batch's per-group best codes are merged into it.
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
            self.dictionary = (
                np.zeros(0, dtype=object)
                if arg_type is DataType.TEXT
                else None
            )

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
        if self.dictionary is not None:
            self._fold_text(vector.dictionary, values, group_ids, n_groups)
            return
        if self.exact_sum and len(values):
            self.magnitude += len(values) * max(
                int(values.max()), -int(values.min())
            )
            if self.magnitude > _INT64_MAX and self.value.dtype != object:
                self.value = self.value.astype(object)
        if self.exact_sum and self.magnitude < _FLOAT_EXACT:
            # Exact and bounded by ``magnitude``: order cannot matter,
            # and every partial sum is an integer float64 holds exactly.
            if n_groups == 1:
                self.value[0] += values.sum(dtype=np.int64)
            else:
                self.value[:n_groups] += np.bincount(
                    group_ids, weights=values, minlength=n_groups
                ).astype(np.int64)
            return
        self.ufunc.at(
            self.value, group_ids, values.astype(self.value.dtype, copy=False)
        )

    def _fold_text(
        self,
        dictionary: np.ndarray,
        codes: np.ndarray,
        group_ids: np.ndarray,
        n_groups: int,
    ) -> None:
        """TEXT MIN / MAX of one batch: each group's best code in the
        batch, its string merged into the state's dictionary, and the
        better of old and new per group (codes order like strings)."""
        best = np.full(n_groups, self.identity, dtype=np.int64)
        self.ufunc.at(best, group_ids, codes)
        hit = np.flatnonzero(best != self.identity)
        used, slot = np.unique(best[hit], return_inverse=True)
        held = self.value != self.identity
        live, live_slot = np.unique(self.value[held], return_inverse=True)
        # Only strings some group holds stay in the dictionary.
        merged, (old, new) = unify_dictionaries(
            [self.dictionary[live], dictionary[used]]
        )
        self.value[held] = recode(live_slot, old)
        candidate = recode(slot, new)
        self.value[hit] = self.ufunc(self.value[hit], candidate)
        self.dictionary = merged

    def _count(self, group_ids: np.ndarray, n_groups: int) -> None:
        if n_groups == 1:
            self.count[0] += len(group_ids)
        else:
            self.count[:n_groups] += np.bincount(group_ids, minlength=n_groups)

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
            dtype,
            np.where(null, 0, value).astype(dtype.numpy_dtype),
            null,
            self.dictionary,
        )


class _RowAggregate:
    """The per-row fallback for what has no numpy kernel: DISTINCT
    COUNT / SUM / AVG (per group, a dict as an ordered set of the
    values seen, summed at the end in first-seen order).  Same
    interface as :class:`_ColumnarAggregate`."""

    def __init__(self, func: str, arg: Expression) -> None:
        self.func = func
        self.arg = arg
        self.groups: list[dict] = []

    def _reserve(self, n_groups: int) -> None:
        self.groups.extend({} for __ in range(n_groups - len(self.groups)))

    def fold(self, batch: Batch, group_ids: np.ndarray, n_groups: int) -> None:
        self._reserve(n_groups)
        groups = self.groups
        values = evaluate(self.arg, batch).to_pylist()
        for gid, value in zip(group_ids.tolist(), values):
            if value is not None:
                groups[gid][value] = None

    def result(self, n_groups: int, dtype: DataType) -> ColumnVector:
        self._reserve(n_groups)
        return ColumnVector.from_pylist(
            dtype, [self._final(group) for group in self.groups]
        )

    def _final(self, group: dict) -> object:
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

    Columnar: each batch's keys are mapped to operator-wide group ids
    (:class:`_GroupIndex`) and every aggregate folds the batch into
    arrays indexed by group id (:class:`_ColumnarAggregate`); only
    DISTINCT COUNT / SUM / AVG go row by row (:class:`_RowAggregate`).
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
        index = None
        n_groups = 1
        if self.group_items:
            index = _GroupIndex(
                [out_types[name] for name, __ in self.group_items]
            )
            n_groups = 0
        for batch in self.child.execute():
            if batch.num_rows == 0:
                continue
            if index is None:
                group_ids = np.zeros(batch.num_rows, dtype=np.intp)
            else:
                group_ids = index.ids(
                    [evaluate(expr, batch) for __, expr in self.group_items]
                )
                n_groups = index.n_groups
            for state in states:
                state.fold(batch, group_ids, n_groups)

        columns = {}
        if index is not None:
            for (name, __), vector in zip(
                self.group_items, index.key_vectors()
            ):
                columns[name] = vector
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
        # DISTINCT changes nothing for MIN / MAX.
        if spec.distinct and spec.func not in ("min", "max"):
            return _RowAggregate(spec.func, spec.arg)
        return _ColumnarAggregate(spec.func, spec.arg, arg_type)

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
            if vector.dtype is DataType.TEXT:  # codes order like strings
                vector = ColumnVector(
                    DataType.INTEGER, vector.values, vector.null_mask
                )
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
