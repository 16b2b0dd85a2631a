"""The keyed and ordered operators against row-at-a-time references.

``HashJoin``, ``Distinct``, ``HashAggregate`` and its DISTINCT
aggregates match keys through one columnar group index, and ``Sort``
ranks keys with one ``np.lexsort``.  The references here are per-row
Python: a ``dict`` of key tuples for the join, a ``set`` of row tuples
for ``Distinct``, a ``dict`` of key tuples for GROUP BY and, per group,
a ``dict`` as an ordered set of argument values for COUNT / SUM / AVG
(DISTINCT), and Python's stable ``sorted`` for ``Sort``.  Each must
agree with its operator row for row and in order, however the inputs
are cut into batches.  The references normalize NaN to one value (a
``set`` of fresh float objects would keep every NaN apart), as GROUP BY
and PostgreSQL do.

Pinned beyond plain equality:

* join keys of BOOLEAN, INTEGER, FLOAT and DATE (its day number) match
  as Python ``==`` on the values does
  (a FLOAT equals an INTEGER only when integral and within int64),
  ``-0.0`` matches ``0.0``, and NULL and NaN never match;
* TEXT keys match across batches that carry different dictionaries;
* a DISTINCT FLOAT sum is the left-to-right sum of first-seen values,
  and a DISTINCT INTEGER sum is exact, or an ``ExecutionError`` once
  it leaves int64;
* a group's output key is its first row's, compared by ``repr``: a
  group whose first row holds ``0.0`` prints ``0.0`` even where
  another group met ``-0.0`` first;
* ``Sort`` puts NaN above every number and NULL last ascending (first
  descending), ties ``-0.0`` with ``0.0`` and keeps tied rows in input
  order in both directions.

``REPRO_ORACLE_EXAMPLES`` sets the examples per property (default 25;
``make oracle`` runs 250).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.batch import Batch, ColumnVector
from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.executor.expressions import evaluate
from repro.executor.operators import (
    AggregateSpec,
    BatchSource,
    Distinct,
    HashAggregate,
    HashJoin,
    Limit,
    Sort,
)
from repro.sql.ast import ColumnRef

EXAMPLES = int(os.environ.get("REPRO_ORACLE_EXAMPLES", "25"))

BIG = 2**62
NAN = float("nan")

#: FLOATs at the edges of exact integers: 2**53 + 1 has no FLOAT,
#: 2**63 equals no int64 and -2**63 does.
EDGES = [2.0**53, 2.0**63, -(2.0**63)]
#: Values per type; few, so keys collide.  The FLOATs hold integral
#: values an INTEGER or BOOLEAN may equal.
POOLS = {
    DataType.INTEGER: [-1, 0, 1, 2, 2**53 + 1, BIG, -BIG, 2**63 - 1],
    DataType.FLOAT: [-0.0, 0.0, 1.0, 2.0, 0.5, NAN, math.inf, *EDGES],
    DataType.BOOLEAN: [True, False],
    DataType.TEXT: ["", "a", "b", "ab", "é"],
    DataType.DATE: [-1, 0, 1, 2],
}
#: What sits under a NULL's mask bit is arbitrary; make it conspicuous.
UNDER_NULL = {
    DataType.INTEGER: 1,
    DataType.FLOAT: 1.0,
    DataType.BOOLEAN: True,
    DataType.DATE: 1,
}


def _vector(dtype, items):
    vector = ColumnVector.from_pylist(dtype, items)
    if dtype is not DataType.TEXT:
        vector.values[vector.null_mask] = UNDER_NULL[dtype]
    return vector


@st.composite
def tables(draw, types, max_rows=25):
    """A table of ``types`` (name -> type) as batches cut anywhere, each
    TEXT column built per batch (its own dictionary) or sliced from one
    vector (a shared dictionary holding strings the batch may not
    use)."""
    n = draw(st.integers(0, max_rows))
    columns = {
        name: draw(
            st.lists(
                st.one_of(st.none(), st.sampled_from(POOLS[dtype])),
                min_size=n,
                max_size=n,
            )
        )
        for name, dtype in types.items()
    }
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    sliced = draw(st.booleans())
    whole = {name: _vector(types[name], c) for name, c in columns.items()}
    return [
        Batch(
            {
                name: (
                    whole[name].slice(start, stop)
                    if sliced
                    else _vector(types[name], items[start:stop])
                )
                for name, items in columns.items()
            },
            num_rows=stop - start,
        )
        for start, stop in zip(bounds, bounds[1:])
    ]


def _source(batches, types):
    return BatchSource(lambda: iter(batches), dict(types))


def _canon(value):
    """A value as compared here: type and repr, so ``True`` is not
    ``1``, ``-0.0`` is not ``0.0`` and NaN equals NaN."""
    return (type(value).__name__, repr(value))


def _rows(batches):
    return [tuple(map(_canon, row)) for b in batches for row in b.rows()]


def _one_nan(value):
    return NAN if isinstance(value, float) and value != value else value


# ----------------------------------------------------------------------
# HashJoin against the dict of key tuples it replaced.
# ----------------------------------------------------------------------


def reference_join(probes, build, left_keys, right_keys, kind, right_types):
    """The old ``HashJoin.execute``: one batch per probe batch that
    matched or padded anything."""
    table = {}
    if build.num_rows:
        key_lists = [build.column(k).to_pylist() for k in right_keys]
        for row in range(build.num_rows):
            key = tuple(kl[row] for kl in key_lists)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(row)
    out = []
    for probe in probes:
        if probe.num_rows == 0:
            continue
        key_lists = [probe.column(k).to_pylist() for k in left_keys]
        probe_idx, build_idx, unmatched = [], [], []
        for row in range(probe.num_rows):
            key = tuple(kl[row] for kl in key_lists)
            matches = None if any(v is None for v in key) else table.get(key)
            if matches:
                probe_idx.extend([row] * len(matches))
                build_idx.extend(matches)
            elif kind == "left":
                unmatched.append(row)
        parts = []
        if probe_idx:
            combined = dict(probe.take(np.asarray(probe_idx)).columns)
            combined.update(build.take(np.asarray(build_idx)).columns)
            parts.append(Batch(combined))
        if unmatched:
            combined = dict(probe.take(np.asarray(unmatched)).columns)
            for name, dtype in right_types.items():
                combined[name] = ColumnVector(
                    dtype,
                    np.zeros(len(unmatched), dtype=dtype.numpy_dtype),
                    np.ones(len(unmatched), dtype=np.bool_),
                )
            parts.append(Batch(combined))
        if parts:
            out.append(Batch.concat(parts))
    return out


#: Key type pairs: equal types, and every mix of the number types.
NUMBERS = (DataType.BOOLEAN, DataType.INTEGER, DataType.FLOAT)
KEY_PAIRS = [(dtype, dtype) for dtype in POOLS]
KEY_PAIRS += [(a, b) for a in NUMBERS for b in NUMBERS if a is not b]


@st.composite
def joins(draw):
    n_keys = draw(st.integers(1, 2))
    pairs = [draw(st.sampled_from(KEY_PAIRS)) for __ in range(n_keys)]
    if draw(st.integers(0, 9)) == 0:  # TEXT or DATE against another
        pairs[-1] = draw(
            st.sampled_from(
                [
                    (DataType.TEXT, DataType.INTEGER),
                    (DataType.DATE, DataType.TEXT),
                    (DataType.DATE, DataType.INTEGER),
                    (DataType.DATE, DataType.FLOAT),
                ]
            )
        )
    left_types = {f"l.k{i}": a for i, (a, __) in enumerate(pairs)}
    right_types = {f"r.k{i}": b for i, (__, b) in enumerate(pairs)}
    left_types["l.p"] = DataType.TEXT
    right_types["r.p"] = DataType.FLOAT
    left = draw(tables(left_types))
    right = draw(tables(right_types))
    kind = draw(st.sampled_from(["inner", "left"]))
    return left_types, left, right_types, right, kind


@given(case=joins())
@settings(max_examples=EXAMPLES * 4, deadline=None)
def test_hash_join_matches_the_dict_join(case):
    left_types, left, right_types, right, kind = case
    left_keys = [k for k in left_types if k != "l.p"]
    right_keys = [k for k in right_types if k != "r.p"]
    op = HashJoin(
        _source(left, left_types),
        _source(right, right_types),
        left_keys,
        right_keys,
        kind,
    )
    got = list(op.execute())
    build = Batch.concat(right)
    want = reference_join(
        left, build, left_keys, right_keys, kind, right_types
    )
    assert [b.num_rows for b in got] == [b.num_rows for b in want]
    assert _rows(got) == _rows(want)
    for batch in got:
        assert list(batch.columns) == list(op.output_types())


# ----------------------------------------------------------------------
# Distinct against the set of row tuples it replaced.
# ----------------------------------------------------------------------


def reference_distinct(batches):
    """The old ``Distinct.execute``, NaN normalized to one value."""
    seen = set()
    out = []
    for batch in batches:
        if batch.num_rows == 0:
            continue
        keep = np.zeros(batch.num_rows, dtype=np.bool_)
        lists = [v.to_pylist() for v in batch.columns.values()]
        for row in range(batch.num_rows):
            key = tuple(_one_nan(lst[row]) for lst in lists)
            if key not in seen:
                seen.add(key)
                keep[row] = True
        if keep.any():
            out.append(batch.filter(keep))
    return out


@given(
    data=st.data(),
    types=st.lists(st.sampled_from(list(POOLS)), min_size=1, max_size=3),
)
@settings(max_examples=EXAMPLES * 4, deadline=None)
def test_distinct_matches_the_set_of_rows(data, types):
    types = {f"c{i}": dtype for i, dtype in enumerate(types)}
    batches = data.draw(tables(types, max_rows=40))
    got = list(Distinct(_source(batches, types)).execute())
    want = reference_distinct(batches)
    # Streamed: the same rows out of the same input batches.
    assert [b.num_rows for b in got] == [b.num_rows for b in want]
    assert _rows(got) == _rows(want)


# ----------------------------------------------------------------------
# GROUP BY keys against a dict of key tuples.
# ----------------------------------------------------------------------


def reference_group_by(batches, keys):
    """Rows of ``keys`` + COUNT(*): groups in first-appearance order,
    each keyed by its first row (NULL, NaN and ``±0.0`` one value
    each)."""
    groups = {}
    for batch in batches:
        for key in batch.select(keys).rows():
            normal = tuple(map(_one_nan, key))
            groups.setdefault(normal, [key, 0])[1] += 1
    return [(*key, count) for key, count in groups.values()]


@st.composite
def grouped(draw):
    types = draw(
        st.lists(st.sampled_from(list(POOLS)), min_size=1, max_size=3)
    )
    types = {f"c{i}": dtype for i, dtype in enumerate(types)}
    return types, draw(tables(types, max_rows=40))


#: A group ('', 0.0) after (NULL, -0.0): ``h``'s 0.0 first met -0.0.
SIGNED_ZERO_KEYS = (
    {"g": DataType.TEXT, "h": DataType.FLOAT},
    [
        Batch(
            {
                "g": _vector(DataType.TEXT, [None, ""]),
                "h": _vector(DataType.FLOAT, [-0.0, 0.0]),
            }
        )
    ],
)


@given(case=grouped())
@example(case=SIGNED_ZERO_KEYS)
@settings(max_examples=EXAMPLES * 4, deadline=None)
def test_group_keys_are_each_groups_first_row(case):
    types, batches = case
    op = HashAggregate(
        _source(batches, types),
        [(name, ColumnRef(name)) for name in types],
        [AggregateSpec("n", "count", None)],
    )
    (out,) = op.execute()
    want = reference_group_by(batches, list(types))
    assert _rows([out]) == [tuple(map(_canon, row)) for row in want]
    # Typed keys even with no groups (empty input).
    assert {n: v.dtype for n, v in out.columns.items()} == op.output_types()


# ----------------------------------------------------------------------
# COUNT / SUM / AVG (DISTINCT) against the per-row aggregate they
# replaced.
# ----------------------------------------------------------------------


class RowAggregate:
    """The old ``_RowAggregate`` (per group, a dict as an ordered set of
    the values seen, summed at the end in first-seen order), NaN
    normalized to one value."""

    def __init__(self, func, arg):
        self.func = func
        self.arg = arg
        self.groups = []

    def _reserve(self, n_groups):
        self.groups.extend({} for __ in range(n_groups - len(self.groups)))

    def fold(self, batch, group_ids, n_groups):
        self._reserve(n_groups)
        values = evaluate(self.arg, batch).to_pylist()
        for gid, value in zip(group_ids, values):
            if value is not None:
                self.groups[gid][_one_nan(value)] = None

    def result(self, n_groups):
        self._reserve(n_groups)
        return [self._final(group) for group in self.groups]

    def _final(self, group):
        if self.func == "count":
            return len(group)
        if not group:
            return None
        total = sum(group)
        return total / len(group) if self.func == "avg" else total


def reference_distinct_aggregate(batches, keys, specs):
    """Rows of ``keys`` + one value per ``(func, arg)`` in ``specs``,
    groups in first-appearance order (NULL one group, NaN one group)."""
    ids = {}
    first = []
    states = [RowAggregate(func, ColumnRef(arg)) for func, arg in specs]
    for batch in batches:
        if batch.num_rows == 0:
            continue
        group_ids = [0] * batch.num_rows
        if keys:
            lists = [batch.column(k).to_pylist() for k in keys]
            for row, key in enumerate(zip(*lists)):
                normal = tuple(map(_one_nan, key))
                if normal not in ids:
                    ids[normal] = len(ids)
                    first.append(key)
                group_ids[row] = ids[normal]
        for state in states:
            state.fold(batch, group_ids, len(ids) if keys else 1)
    n_groups = len(ids) if keys else 1
    results = [state.result(n_groups) for state in states]
    if any(
        func == "sum" and value is not None and not -(2**63) <= value < 2**63
        for (func, __), values in zip(specs, results)
        for value in values
        if isinstance(value, int)
    ):
        return None  # out of INTEGER range
    keyed = first if keys else [()]
    return [key + tuple(vals) for key, *vals in zip(keyed, *results)]


AGG_TYPES = {
    "g": DataType.TEXT,
    "h": DataType.FLOAT,
    "i": DataType.INTEGER,
    "f": DataType.FLOAT,
    "b": DataType.BOOLEAN,
    "t": DataType.TEXT,
}
SUMMABLE = ("i", "f")


@st.composite
def distinct_specs(draw):
    func = draw(st.sampled_from(["count", "sum", "avg"]))
    names = SUMMABLE if func != "count" else ("i", "f", "b", "t")
    return func, draw(st.sampled_from(names))


def _agree(got, want):
    if isinstance(want, float) and isinstance(got, float):
        if want != want or got != got:
            return want != want and got != got
        return got == want or math.isclose(got, want, rel_tol=1e-12)
    return type(got) is type(want) and got == want


@given(
    data=st.data(),
    keys=st.lists(st.sampled_from(["g", "h"]), max_size=2, unique=True),
    specs=st.lists(distinct_specs(), min_size=1, max_size=4),
)
@settings(max_examples=EXAMPLES * 4, deadline=None)
def test_distinct_aggregates_match_the_row_aggregate(data, keys, specs):
    batches = data.draw(tables(AGG_TYPES, max_rows=40))
    op = HashAggregate(
        _source(batches, AGG_TYPES),
        [(f"k{n}", ColumnRef(name)) for n, name in enumerate(keys)],
        [
            AggregateSpec(f"a{n}", func, ColumnRef(arg), distinct=True)
            for n, (func, arg) in enumerate(specs)
        ],
    )
    want = reference_distinct_aggregate(batches, keys, specs)
    if want is None:
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            list(op.execute())
        return
    (out,) = op.execute()
    got = list(out.rows())
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):  # same groups, same order
        keys_got, keys_want = got_row[: len(keys)], want_row[: len(keys)]
        assert list(map(_canon, keys_got)) == list(map(_canon, keys_want))
        for (func, __), g, w in zip(
            specs, got_row[len(keys) :], want_row[len(keys) :]
        ):
            # SUM folds the same values in the same order: bit-equal.
            ok = _canon(g) == _canon(w) if func != "avg" else _agree(g, w)
            assert ok, (func, g, w)


def test_distinct_float_sum_is_the_first_seen_left_to_right_sum():
    # 1e16 + 1 + 1 - 1e16 in first-seen order: 0.0 with the repeated 1
    # skipped, not the 1.0 a compensated sum would give.
    values = [1e16, 1.0, 1.0, 1.0, -1e16, 1.0]
    types = {"f": DataType.FLOAT}
    batches = [
        Batch({"f": _vector(DataType.FLOAT, values[:2])}),
        Batch({"f": _vector(DataType.FLOAT, values[2:])}),
    ]
    op = HashAggregate(
        _source(batches, types),
        [],
        [AggregateSpec("s", "sum", ColumnRef("f"), distinct=True)],
    )
    (out,) = op.execute()
    assert list(out.rows()) == [(1e16 + 1.0 - 1e16,)]


# ----------------------------------------------------------------------
# Sort against Python's stable sort.
# ----------------------------------------------------------------------


def _order(value):
    """A key's place in Python's order: numbers (and strings, dates,
    booleans), then NaN, then NULL."""
    nan = isinstance(value, float) and value != value
    return (value is None, nan, 0 if value is None or nan else value)


def reference_sort(rows, keys):
    """``rows`` ordered by ``keys`` (``(position, ascending)`` pairs):
    one stable ``sorted`` per key, minor key first.  DESC reverses,
    which keeps tied rows in input order."""
    for at, ascending in reversed(keys):
        rows = sorted(
            rows, key=lambda row: _order(row[at]), reverse=not ascending
        )
    return rows


@given(
    data=st.data(),
    types=st.lists(st.sampled_from(list(POOLS)), min_size=1, max_size=3),
)
@settings(max_examples=EXAMPLES * 4, deadline=None)
def test_sort_matches_pythons_stable_sort(data, types):
    types = {f"c{i}": dtype for i, dtype in enumerate(types)}
    batches = data.draw(tables(types, max_rows=40))
    # Each row's input position rides along, so tie order shows.
    starts = np.cumsum([0, *(batch.num_rows for batch in batches)])
    batches = [
        batch.with_column(
            "row",
            ColumnVector.from_values(
                DataType.INTEGER, np.arange(start, start + batch.num_rows)
            ),
        )
        for batch, start in zip(batches, starts)
    ]
    order = data.draw(st.permutations(range(len(types))))
    n_keys = data.draw(st.integers(1, len(types)))
    keys = [(at, data.draw(st.booleans())) for at in order[:n_keys]]
    limit = data.draw(st.none() | st.integers(0, 10))
    op = Limit(
        Sort(
            _source(batches, {**types, "row": DataType.INTEGER}),
            [(ColumnRef(f"c{at}"), ascending) for at, ascending in keys],
        ),
        limit,
    )
    rows = [row for batch in batches for row in batch.rows()]
    want = reference_sort(rows, keys)[:limit]
    assert _rows(op.execute()) == [tuple(map(_canon, r)) for r in want]
