"""Relational operators over batches.

A Volcano pipeline of batches: each operator exposes
``execute() -> Iterator[Batch]`` and ``output_types()``, with no
Python per row.  Keyed operators share :func:`_factorize`'s equality
(NULL, NaN and ``±0.0`` one value each): :class:`HashAggregate` and
its DISTINCT aggregates, :class:`Distinct` and :class:`HashJoin` map
keys to operator-wide ids through one :class:`_GroupIndex` and take
key values from each id's first row, and :class:`Sort` ranks keys by
the same factorization.  These operators are deliberately
engine-agnostic — they sit above either a
:class:`repro.core.raw_scan.RawScan` (PostgresRaw) or a binary-storage
scan (conventional baselines) and never know which.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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

    Keys are equal as Python ``==`` on their values says: across
    BOOLEAN, INTEGER, FLOAT and DATE (a day number) as integers, so a
    FLOAT equals only an integral value within int64 and ``-0.0``
    equals ``0.0``; TEXT equals only TEXT.  NULL and NaN keys never
    match.  Build keys take ids in a :class:`_GroupIndex` and probe
    batches map through it.  Per probe batch: matched rows in probe
    order, each with its matches in build order, then (``kind='left'``)
    the unmatched probe rows padded with NULLs.
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
        right_types = self.right.output_types()
        left_types = self.left.output_types()
        domains = [
            _join_domain(left_types[lk], right_types[rk])
            for lk, rk in zip(self.left_keys, self.right_keys)
        ]
        # The build rows, then one all-NULL row that pads a LEFT join.
        pad = {
            name: ColumnVector.from_pylist(dtype, [None])
            for name, dtype in right_types.items()
        }
        build = Batch.concat([*self.right.execute(), Batch(pad)])
        # Build keys take ids 0 .. n_build - 1 (probe-only keys take
        # later ones); sorted by id, stably, an id's build rows run from
        # starts[id] for counts[id] rows.
        index = _GroupIndex([d or DataType.INTEGER for d in domains])
        rows, ids = _join_ids(index, build, self.right_keys, domains)
        n_build = index.n_groups
        by_id = rows[np.argsort(ids, kind="stable")]
        counts = np.bincount(ids, minlength=n_build)
        starts = np.cumsum(counts) - counts
        for probe in self.left.execute():
            if probe.num_rows == 0:
                continue
            rows, ids = _join_ids(index, probe, self.left_keys, domains)
            hit = ids < n_build
            rows, ids = rows[hit], ids[hit]
            per_row = counts[ids]
            skip = starts[ids] - (np.cumsum(per_row) - per_row)
            probe_rows = np.repeat(rows, per_row)
            build_rows = by_id[
                np.repeat(skip, per_row) + np.arange(len(probe_rows))
            ]
            if self.kind == "left":
                unmatched = np.ones(probe.num_rows, dtype=np.bool_)
                unmatched[rows] = False
                unmatched = np.flatnonzero(unmatched)
                probe_rows = np.concatenate([probe_rows, unmatched])
                padding = np.full(len(unmatched), build.num_rows - 1)
                build_rows = np.concatenate([build_rows, padding])
            if len(probe_rows):
                yield Batch(
                    {
                        **probe.take(probe_rows).columns,
                        **build.take(build_rows).columns,
                    }
                )

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


def exact_partials(
    specs: list[AggregateSpec], finals: Iterable[Expression]
) -> frozenset[str]:
    """The ``specs`` (folding partials) that none of ``finals``, the
    aggregates' final values (:func:`partial_aggregate`), reads as it
    is: the partial SUMs only an AVG divides.  They may stay exact past
    int64 (:class:`HashAggregate`'s ``exact_sums``)."""
    shown = {e.name for e in finals if isinstance(e, ColumnRef)}
    return frozenset(spec.name for spec in specs) - shown


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


def _first_rows(ids: np.ndarray, seen: int, count: int) -> np.ndarray:
    """The first row of every id ``seen .. count - 1`` in ``ids`` (the
    ids a batch added), in id order.

    Ids number keys in the order they first appear, so a new id's first
    row is one whose id is at least ``seen`` and above every id before
    it: one pass, no sort.
    """
    if count == seen:
        return np.zeros(0, dtype=np.intp)
    first = ids >= seen
    first[1:] &= ids[1:] > np.maximum.accumulate(ids)[:-1]
    return np.flatnonzero(first)


class _Codes:
    """Dense codes, numbered in the order keys first appear."""

    #: Codes assigned so far.
    count = 0

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


class _SeenKeys:
    """The keys seen so far, sorted, beside their codes.  Adding a
    batch's new keys is one ``np.insert``, so it costs O(keys seen)."""

    def __init__(self, dtype: np.dtype) -> None:
        self.keys = np.zeros(0, dtype=dtype)
        self.codes = np.zeros(0, dtype=np.int64)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The code of each of ``keys`` (sorted, unique), ``-1`` where
        unseen (NaN finds NaN), and where each would be inserted."""
        at = np.searchsorted(self.keys, keys)
        hit = at < len(self.keys)
        match = self.keys[at[hit]]
        same = match == keys[hit]
        if keys.dtype.kind == "f":
            same |= np.isnan(match) & np.isnan(keys[hit])
        hit[hit] = same
        codes = np.full(len(keys), -1, dtype=np.int64)
        codes[hit] = self.codes[at[hit]]
        return codes, at

    def add(self, at: np.ndarray, keys: np.ndarray, codes: np.ndarray) -> None:
        """Record unseen ``keys`` (sorted) under ``codes``, inserted at
        ``at`` as :meth:`find` gave."""
        if len(keys):
            self.keys = np.insert(self.keys, at, keys)
            self.codes = np.insert(self.codes, at, codes)


class _KeyColumn(_Codes):
    """Operator-wide codes of one key column.

    Codes are dense and assigned in the order values first appear, NULL
    taking a code of its own (and, for FLOAT, NaN: ``np.unique`` folds
    every NaN into one value, and ``-0.0`` into ``0.0``).  A batch is
    mapped in one pass per column: TEXT through its dictionary's
    strings (one dict lookup per dictionary entry, no sort), every other
    type by :func:`_factorize` plus a binary search among the values
    seen (:class:`_SeenKeys`).  Python runs once per batch and per new
    string, never per row.
    """

    def __init__(self, dtype: DataType) -> None:
        self.dtype = dtype
        self.null_code = -1
        if dtype is DataType.TEXT:
            self.index: dict[str, int] = {}
        else:
            self.seen = _SeenKeys(dtype.numpy_dtype)

    def codes(self, vector: ColumnVector) -> np.ndarray:
        """The operator-wide code of every row of ``vector``."""
        if self.dtype is DataType.TEXT:
            return self._text_codes(vector)
        return self._value_codes(vector)

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
                if k == len(strings):
                    self.null_code = int(known[k])
                else:
                    self.index[strings[k]] = int(known[k])
        return known[local]

    def _value_codes(self, vector: ColumnVector) -> np.ndarray:
        values, nulls = vector.values, vector.null_mask
        rows = np.flatnonzero(~nulls) if nulls.any() else None
        uniques, first, inverse = _factorize(
            values if rows is None else values[rows]
        )
        if rows is not None:
            first = rows[first]
        # Local key k < len(uniques) is a value; NULL is one past them.
        found, at = self.seen.find(uniques)
        known = np.append(found, self.null_code)
        first = np.append(
            first, int(np.argmax(nulls)) if rows is not None else _INT64_MAX
        )
        new = self._assign(known, first)
        if (new == len(uniques)).any():
            self.null_code = int(known[-1])
        added = np.sort(new[new < len(uniques)])
        self.seen.add(at[added], uniques[added], known[added])
        if rows is None:
            return known[:-1][inverse]
        codes = np.full(len(values), known[-1], dtype=np.int64)
        codes[rows] = known[:-1][inverse]
        return codes


class _PairTable(_Codes):
    """Dense ids of ``(a, b)`` code pairs, assigned in the order pairs
    first appear; the pairs seen (as ``a << 32 | b``) sit in a
    :class:`_SeenKeys`."""

    def __init__(self) -> None:
        self.seen = _SeenKeys(np.int64)

    def lookup(
        self, a: np.ndarray, b: np.ndarray, b_bound: int
    ) -> np.ndarray:
        """Every row's pair id."""
        # Mixed radix within the batch (dense, so usually factorized
        # without a sort).
        uniques, first, inverse = _factorize(a * b_bound + b)
        keys = (uniques // b_bound) << 32 | (uniques % b_bound)
        ids, at = self.seen.find(keys)
        new = np.sort(self._assign(ids, first))
        self.seen.add(at[new], keys[new], ids[new])
        return ids[inverse]


class _GroupIndex:
    """Operator-wide group ids: per key column a :class:`_KeyColumn`,
    and for composite keys a chain of :class:`_PairTable`\\ s combining
    them.  Ids are dense, in the order groups first appear, so
    :func:`_first_rows` finds each new group's first row; a single
    key's codes are its group ids."""

    def __init__(self, dtypes: list[DataType]) -> None:
        self.columns = [_KeyColumn(dtype) for dtype in dtypes]
        self.pairs = [_PairTable() for __ in dtypes[1:]]
        self.n_groups = 0

    def ids(self, vectors: list[ColumnVector]) -> np.ndarray:
        codes = [col.codes(v) for col, v in zip(self.columns, vectors)]
        ids = codes[0]
        for pairs, column, column_codes in zip(
            self.pairs, self.columns[1:], codes[1:]
        ):
            ids = pairs.lookup(ids, column_codes, column.count)
        self.n_groups = (self.pairs or self.columns)[-1].count
        return ids


def _join_domain(left: DataType, right: DataType) -> DataType | None:
    """The type two join key columns are matched in; ``None`` when no
    value of one equals a value of the other (TEXT against another)."""
    if left is right:
        return left
    return None if DataType.TEXT in (left, right) else DataType.INTEGER


def _join_key(
    vector: ColumnVector, domain: DataType | None
) -> tuple[ColumnVector, np.ndarray]:
    """``vector`` as keys of ``domain``, and the rows whose key matches
    nothing: NULL, NaN, a FLOAT no int64 equals, and — with no domain —
    every row."""
    if domain is None:
        return vector, np.ones(len(vector), dtype=np.bool_)
    values, miss = vector.values, vector.null_mask
    if vector.dtype is DataType.FLOAT:
        if domain is DataType.FLOAT:
            miss = miss | np.isnan(values)
        else:
            miss = miss | ~(
                (values == np.floor(values))
                & (values >= -(2.0**63))
                & (values < 2.0**63)
            )
            values = np.where(miss, 0, values).astype(np.int64)
    elif vector.dtype is not domain:
        values = values.astype(np.int64)
    return ColumnVector(domain, values, miss, vector.dictionary), miss


def _join_ids(
    index: _GroupIndex,
    batch: Batch,
    names: list[str],
    domains: list[DataType | None],
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``batch`` whose join key can match, and their ids."""
    keys = [_join_key(batch.column(n), d) for n, d in zip(names, domains)]
    miss = functools.reduce(np.logical_or, [m for __, m in keys])
    rows = np.flatnonzero(~miss)
    if not len(rows):
        return rows, rows
    return rows, index.ids([key.take(rows) for key, __ in keys])


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
        self,
        func: str,
        arg: Expression | None,
        arg_type: DataType | None,
        distinct: bool = False,
    ) -> None:
        self.func = func
        self.arg = arg
        self.count = np.zeros(0, dtype=np.int64)
        #: DISTINCT: the argument's codes and the (group, code) pairs
        #: seen — only a pair's first row is folded.
        self.seen = (_KeyColumn(arg_type), _PairTable()) if distinct else None
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
        if self.seen is not None:
            column, pairs = self.seen
            before = pairs.count
            codes = column.codes(vector)
            pair_ids = pairs.lookup(group_ids, codes, column.count)
            first = _first_rows(pair_ids, before, pairs.count)
            vector, group_ids = vector.take(first), group_ids[first]
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

    def result(
        self, n_groups: int, dtype: DataType, exact: bool = False
    ) -> ColumnVector:
        """Each group's value; an INTEGER sum past int64 raises
        ``OverflowError`` or, with ``exact``, stays an object
        array of Python ints."""
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
        values = np.where(null, 0, value)
        try:
            values = values.astype(dtype.numpy_dtype)
        except OverflowError:
            if not exact:
                raise
        return ColumnVector(dtype, values, null, self.dictionary)


class HashAggregate(Operator):
    """Hash aggregation with optional grouping keys.

    With no GROUP BY, produces exactly one row (even over empty input,
    per SQL semantics: ``COUNT(*)`` of nothing is 0).  Groups come out
    in the order their first rows arrived, keyed by those rows' values;
    NULL keys form one group, and so do NaN keys (and ``-0.0`` with
    ``0.0``).

    Columnar: each batch's keys are mapped to operator-wide group ids
    (:class:`_GroupIndex`) and every aggregate folds the batch into
    arrays indexed by group id (:class:`_ColumnarAggregate`) — under
    DISTINCT, only each (group, argument value) pair's first row, the
    values equal as group keys are.

    An INTEGER SUM whose value leaves int64 raises, unless its name is
    in ``exact_sums``: a partial SUM (an MV's tail, merge or
    re-aggregation) that only an AVG reads stays exact, an object array
    of Python ints, and the AVG divides it as the raw AVG does.
    """

    def __init__(
        self,
        child: Operator,
        group_items: list[tuple[str, Expression]],
        aggregates: list[AggregateSpec],
        exact_sums: frozenset[str] = frozenset(),
    ) -> None:
        self.child = child
        self.group_items = group_items
        self.aggregates = aggregates
        self.exact_sums = exact_sums

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
            key_types = {n: out_types[n] for n, __ in self.group_items}
            index = _GroupIndex(list(key_types.values()))
            # The key values of every group's first row, batch by batch.
            firsts = []
            n_groups = 0
        for batch in self.child.execute():
            if batch.num_rows == 0:
                continue
            if index is None:
                group_ids = np.zeros(batch.num_rows, dtype=np.intp)
            else:
                keys = Batch(
                    {name: evaluate(e, batch) for name, e in self.group_items}
                )
                group_ids = index.ids(list(keys.columns.values()))
                first = _first_rows(group_ids, n_groups, index.n_groups)
                if len(first):
                    firsts.append(keys.take(first))
                n_groups = index.n_groups
            for state in states:
                state.fold(batch, group_ids, n_groups)

        columns = {}
        if index is not None:
            # Narrowed: a TEXT key holds no more strings than groups.
            firsts = firsts or [Batch.empty_like(key_types)]
            for name, vector in Batch.concat(firsts).columns.items():
                columns[name] = vector.narrowed()
        for spec, state in zip(self.aggregates, states):
            exact = spec.name in self.exact_sums
            try:
                columns[spec.name] = state.result(
                    n_groups, out_types[spec.name], exact
                )
            except OverflowError:  # an exact sum too large for int64
                raise ExecutionError(
                    f"{spec.func.upper()} result is out of INTEGER range"
                ) from None
        yield Batch(columns, num_rows=n_groups)

    @staticmethod
    def _state(
        spec: AggregateSpec, child_types: dict[str, DataType]
    ) -> _ColumnarAggregate:
        if spec.arg is None or isinstance(spec.arg, Star):
            return _ColumnarAggregate(spec.func, None, None)
        arg_type = infer_type(spec.arg, child_types)
        # DISTINCT changes nothing for MIN / MAX.
        distinct = spec.distinct and spec.func not in ("min", "max")
        return _ColumnarAggregate(spec.func, spec.arg, arg_type, distinct)

    def describe(self) -> str:
        keys = ", ".join(n for n, __ in self.group_items) or "<global>"
        aggs = ", ".join(f"{s.func}->{s.name}" for s in self.aggregates)
        return f"HashAggregate [keys: {keys}; aggs: {aggs}]"

    def children(self) -> list[Operator]:
        return [self.child]


class MVScan(Operator):
    """Serve a stored materialized-aggregate batch.

    An entry level with its table is served as stored — no raw-file
    scan.  One that lags it comes with ``tail``: the entry's own
    aggregate (its recipe) planned over the table rows past its
    watermark.  The tail's groups are re-aggregated with the stored
    ones by :func:`partial_aggregate`, and the merged batch is what is
    served.  A capture is the same fold from row 0 into an empty
    stored batch.  ``on_merged(batch, seconds)`` receives the merged
    batch and the seconds the tail (scan + recipe aggregate) took, for
    the deferred install.  ``aggs`` maps ``(func, arg)`` to the stored
    column name; every other stored column is a group key.

    A partial SUM that leaves int64 stays exact (an object array) for
    an AVG to divide, unless it is ``shown``: a stored column the plan
    above reads as it is, as a SUM, which then raises like the raw SUM.
    An exact sum cannot be stored: the install refuses the batch.
    """

    def __init__(
        self,
        batch: Batch,
        types: dict[str, DataType],
        label: str = "MVScan",
        tail: Operator | None = None,
        aggs: dict[tuple[str, str], str] | None = None,
        on_merged: Callable[[Batch, float], None] | None = None,
        shown: frozenset[str] = frozenset(),
    ) -> None:
        self._batch = batch
        self._types = types
        self._label = label
        self._tail = tail
        self._aggs = aggs or {}
        self._on_merged = on_merged
        self._shown = shown

    def serving(self, batch: Batch | None) -> "MVScan":
        """This (level, tail-less) leaf re-bound to another batch of
        the same entry."""
        return MVScan(batch, self._types, self._label)

    def execute(self) -> Iterator[Batch]:
        if self._tail is None:
            yield self._batch
            return
        start = time.perf_counter()
        (tail,) = self._tail.execute()
        seconds = time.perf_counter() - start
        merged = self._merge(tail)
        if self._on_merged is not None:
            self._on_merged(merged, seconds)
        yield merged

    def _merge(self, tail: Batch) -> Batch:
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
            lambda: iter((stored, tail)),
            {name: self._types[name] for name in names},
        )
        (merged,) = HashAggregate(
            source,
            [(name, ColumnRef(name)) for name in dims],
            list(folds.values()),
            frozenset(folds) - self._shown,
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


class Sort(Operator):
    """Full materializing sort: one stable ``np.lexsort`` over the keys'
    ranks.  A key's rank is its place among the key's distinct non-NULL
    values (:func:`_factorize`: NaN above every number, as in
    PostgreSQL, and ``-0.0`` tied with ``0.0``; TEXT by its codes, which
    order like strings), NULL's is one above them all, and DESC negates
    the ranks: NULLs come last ascending and first descending, and rows
    with equal keys keep their input order either way."""

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
        ranks = []
        for expr, ascending in reversed(self.keys):  # major key last
            vector = evaluate(expr, data)
            valid = ~vector.null_mask
            uniques, __, inverse = _factorize(vector.values[valid])
            rank = np.full(data.num_rows, len(uniques), dtype=np.int64)
            rank[valid] = inverse
            ranks.append(rank if ascending else -rank)
        yield data.take(np.lexsort(ranks))

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
    """Streaming duplicate elimination over whole rows, equal as group
    keys are (:class:`_GroupIndex`: NULL, NaN and ``±0.0`` one value
    each): every batch streams out the first row of each new row id."""

    def __init__(self, child: Operator) -> None:
        self.child = child

    def output_types(self) -> dict[str, DataType]:
        return self.child.output_types()

    def execute(self) -> Iterator[Batch]:
        index = _GroupIndex(list(self.output_types().values()))
        for batch in self.child.execute():
            if batch.num_rows == 0:
                continue
            seen = index.n_groups
            ids = index.ids(list(batch.columns.values()))
            first = _first_rows(ids, seen, index.n_groups)
            if len(first):
                yield batch.take(first)

    def children(self) -> list[Operator]:
        return [self.child]
