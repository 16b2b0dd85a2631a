"""``HashAggregate`` against a row-at-a-time reference aggregator.

The operator folds batches with numpy kernels; :func:`reference` is the
algorithm it replaced — one dict lookup and one accumulator update per
row — with integer sums kept as Python ints.  Both must agree on every
row *and on group order* (first appearance), however the input is cut
into batches.  Pinned here beyond plain equality:

* FLOAT ``MIN``/``MAX`` ignore NaN unless a group holds nothing else
  (``fmin``/``fmax``), so the answer does not depend on row order;
* NaN group keys form one group;
* an INTEGER ``SUM`` is exact while it fits int64 and an
  ``ExecutionError`` once it does not;
* under DISTINCT, NaN arguments are one value, as NaN keys are one
  group (the reference normalizes them before its ``set``).

The partial-aggregate algebra (:func:`partial_aggregate`) is checked
here directly: rows cut into parts, each part aggregated into its
partials, the partials re-aggregated, equal the aggregate of all rows.
"""

from __future__ import annotations

import math
import operator
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Batch, ColumnVector
from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.executor.expressions import evaluate
from repro.executor.operators import (
    AggregateSpec,
    BatchSource,
    HashAggregate,
    partial_aggregate,
)
from repro.sql.ast import ColumnRef

BIG = 2**62
NAN = float("nan")

#: name -> (type, values drawn; few, so groups collide).
COLUMNS = {
    "i": (DataType.INTEGER, [-3, 0, 1, 2, BIG, -BIG, 2**63 - 1, -(2**63)]),
    "f": (DataType.FLOAT, [-2.5, -0.0, 0.0, 0.1, 0.2, 1e15, 7.0]),
    "fn": (DataType.FLOAT, [NAN, NAN, 1.5, -1.5, math.inf, 1e300]),
    "t": (DataType.TEXT, ["", "a", "b", "ab", "é"]),
    "b": (DataType.BOOLEAN, [True, False]),
    "d": (DataType.DATE, [-1, 0, 15_000, 15_001]),
}
TYPES = {name: dtype for name, (dtype, __) in COLUMNS.items()}
#: What sits under a NULL's mask bit is arbitrary; make it conspicuous.
UNDER_NULL = {
    DataType.INTEGER: 77,
    DataType.FLOAT: NAN,
    # TEXT holds codes: its NULL rows take the dictionary's last one.
    DataType.TEXT: -1,
    DataType.BOOLEAN: True,
    DataType.DATE: 77,
}
SUMMABLE = ("i", "f", "fn")
INT64 = range(-(2**63), 2**63)


@st.composite
def aggregate_specs(draw):
    func = draw(
        st.sampled_from(["count", "count", "sum", "sum0", "avg", "min", "max"])
    )
    if func == "count" and draw(st.booleans()):
        return (func, None, False)  # COUNT(*)
    names = SUMMABLE if func in ("sum", "sum0", "avg") else tuple(COLUMNS)
    arg = draw(st.sampled_from(names))
    return (func, arg, draw(st.booleans()))


@st.composite
def cases(draw):
    n = draw(st.integers(0, 30))
    table = {
        name: draw(
            st.lists(
                st.one_of(st.none(), st.sampled_from(values)),
                min_size=n,
                max_size=n,
            )
        )
        for name, (__, values) in COLUMNS.items()
    }
    if draw(st.booleans()):  # an all-NULL argument / key column
        table[draw(st.sampled_from(tuple(COLUMNS)))] = [None] * n
    keys = draw(st.lists(st.sampled_from(tuple(COLUMNS)), max_size=3))
    specs = draw(st.lists(aggregate_specs(), min_size=1, max_size=4))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return table, keys, specs, [0, *cuts, n]


# ----------------------------------------------------------------------
# The reference: the old per-row algorithm.
# ----------------------------------------------------------------------


def _better(best, value, beats):
    """MIN/MAX step where NaN never beats a number."""
    if best is None or best != best:
        return value
    if value != value:
        return best
    return value if beats(value, best) else best


def reference(table, n, keys, specs):
    groups = {}

    def fresh():
        zeros = [
            0.0 if arg and TYPES[arg] is DataType.FLOAT else 0
            for __, arg, __ in specs
        ]
        return [
            {"n": 0, "seen": set(), "best": None, "total": z} for z in zeros
        ]

    for row in range(n):
        key = tuple(
            NAN if v is not None and v != v else v
            for v in (table[k][row] for k in keys)
        )
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = fresh()
        for acc, (func, arg, distinct) in zip(accs, specs):
            value = 0 if arg is None else table[arg][row]
            if value is None:
                continue
            if distinct:
                seen = NAN if value != value else value
                if seen in acc["seen"]:
                    continue
                acc["seen"].add(seen)
            acc["n"] += 1
            if func in ("sum", "sum0", "avg"):
                acc["total"] += value
            elif func in ("min", "max"):
                beats = operator.lt if func == "min" else operator.gt
                acc["best"] = _better(acc["best"], value, beats)
    if not keys and not groups:
        groups[()] = fresh()

    def final(func, acc):
        if func == "count":
            return acc["n"]
        if func == "sum0":
            return acc["total"]
        if acc["n"] == 0:
            return None
        if func == "sum":
            return acc["total"]
        if func == "avg":
            return acc["total"] / acc["n"]
        return acc["best"]

    funcs = [func for func, __, __ in specs]
    return [
        key + tuple(map(final, funcs, accs)) for key, accs in groups.items()
    ]


# ----------------------------------------------------------------------
# Running the operator.
# ----------------------------------------------------------------------


def _vector(dtype, items):
    vector = ColumnVector.from_pylist(dtype, items)
    under = UNDER_NULL[dtype]
    if dtype is DataType.TEXT:
        under = max(len(vector.dictionary) - 1, 0)
    vector.values[vector.null_mask] = under
    return vector


def run_operator(table, keys, specs, bounds):
    batches = [
        Batch(
            {
                name: _vector(TYPES[name], items[start:stop])
                for name, items in table.items()
            }
        )
        for start, stop in zip(bounds, bounds[1:])
    ]
    source = BatchSource(lambda: iter(batches), dict(TYPES))
    op = HashAggregate(
        source,
        [(f"k{i}", ColumnRef(name)) for i, name in enumerate(keys)],
        [
            AggregateSpec(
                f"a{i}", func, None if arg is None else ColumnRef(arg), dist
            )
            for i, (func, arg, dist) in enumerate(specs)
        ],
    )
    (out,) = op.execute()
    assert list(out.columns) == list(op.output_types())
    return list(out.rows())


def same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        if want != want or got != got:
            return want != want and got != got
        return got == want or math.isclose(got, want, rel_tol=1e-12)
    return type(got) is type(want) and got == want


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_matches_row_at_a_time_reference(case):
    table, keys, specs, bounds = case
    expected = reference(table, bounds[-1], keys, specs)
    overflow = any(
        func in ("sum", "sum0")
        and arg == "i"
        and row[len(keys) + i] is not None
        and row[len(keys) + i] not in INT64
        for row in expected
        for i, (func, arg, __) in enumerate(specs)
    )
    if overflow:
        with pytest.raises(ExecutionError):
            run_operator(table, keys, specs, bounds)
        return
    rows = run_operator(table, keys, specs, bounds)
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):  # same groups, same order
        assert len(got) == len(want)
        assert all(map(same, got, want)), (got, want)


@given(sizes=st.lists(st.integers(0, 50), max_size=6))
@settings(max_examples=50, deadline=None)
def test_count_star_over_zero_column_batches(sizes):
    batches = [Batch({}, num_rows=n) for n in sizes]
    source = BatchSource(lambda: iter(batches), {})
    op = HashAggregate(source, [], [AggregateSpec("n", "count", None)])
    (out,) = op.execute()
    assert list(out.rows()) == [(sum(sizes),)]


def test_float_sum_does_not_depend_on_batching():
    # ufunc.at applies rows in order, so cutting the input differently
    # reassociates nothing: bit-identical sums, not merely close ones.
    rng = np.random.default_rng(5)
    values = (rng.random(5000) * 1e6).tolist()
    groups = rng.integers(0, 3, 5000).tolist()
    table = {"f": values, "i": groups}
    table.update({n: [None] * 5000 for n in COLUMNS if n not in table})
    specs = [("sum", "f", False), ("avg", "f", False)]
    whole = run_operator(table, ["i"], specs, [0, 5000])
    pieces = run_operator(table, ["i"], specs, [0, 1, 512, 513, 4096, 5000])
    assert whole == pieces == reference(table, 5000, ["i"], specs)


# ----------------------------------------------------------------------
# The partial-aggregate algebra.
# ----------------------------------------------------------------------

#: The table every algebra case aggregates; ``g`` is the group key.
PART_TYPES = {
    "g": DataType.INTEGER,
    "i": DataType.INTEGER,
    "f": DataType.FLOAT,
    "s": DataType.TEXT,
}
#: Every call the algebra decomposes: ``(func, arg)``, ``None`` = ``*``.
CALLS = (
    [("count", None)]
    + [("count", arg) for arg in ("i", "f", "s")]
    + [(func, arg) for func in ("sum", "avg") for arg in ("i", "f")]
    + [(func, arg) for func in ("min", "max") for arg in ("i", "f", "s")]
)

part_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.integers(-1000, 1000)),
        st.one_of(
            st.none(), st.floats(-1e3, 1e3, allow_nan=False, width=32)
        ),
        st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"])),
    ),
    max_size=25,
)


def _source(batches, types):
    return BatchSource(lambda: iter(batches), dict(types))


def _table(rows):
    columns = list(zip(*rows)) if rows else [()] * len(PART_TYPES)
    return Batch(
        {
            name: ColumnVector.from_pylist(dtype, list(values))
            for (name, dtype), values in zip(PART_TYPES.items(), columns)
        },
        num_rows=len(rows),
    )


def _by_group(batch, keys, values):
    """``{group key: (value per call)}`` of one aggregate output."""
    groups = batch.column("k").to_pylist() if keys else [None]
    columns = [v.to_pylist() for v in values]
    return {key: tuple(c[n] for c in columns) for n, key in enumerate(groups)}


def aggregate_at_once(rows, grouped):
    keys = [("k", ColumnRef("g"))] if grouped else []
    specs = [
        AggregateSpec(f"a{n}", func, None if arg is None else ColumnRef(arg))
        for n, (func, arg) in enumerate(CALLS)
    ]
    (out,) = HashAggregate(
        _source([_table(rows)], PART_TYPES), keys, specs
    ).execute()
    return _by_group(out, keys, [out.column(s.name) for s in specs])


def aggregate_in_parts(rows, bounds, grouped, parts_grouped=True):
    """Aggregate each part of ``rows`` into its partials (grouped by
    ``g`` — the grain of an MV's stored groups — or globally, like one
    shard of a global query), re-aggregate the partials, and finish
    every call from them."""
    partials: list[AggregateSpec] = []
    folds: list[AggregateSpec] = []

    def component(arg, part, reagg):
        name = f"p{len(partials)}"
        source = None if arg is None else ColumnRef(arg)
        partials.append(AggregateSpec(name, part, source))
        folds.append(AggregateSpec(name, reagg, ColumnRef(name)))
        return ColumnRef(name)

    finals = [
        partial_aggregate(func, partial(component, arg)) for func, arg in CALLS
    ]
    part_keys = [("k", ColumnRef("g"))] if parts_grouped else []
    outputs = []
    for start, stop in zip(bounds, bounds[1:]):
        part = HashAggregate(
            _source([_table(rows[start:stop])], PART_TYPES),
            part_keys,
            partials,
        )
        (out,) = part.execute()
        outputs.append(out)
    keys = [("k", ColumnRef("k"))] if grouped else []
    (merged,) = HashAggregate(
        _source(outputs, part.output_types()), keys, folds
    ).execute()
    return _by_group(
        merged, keys, [evaluate(final, merged) for final in finals]
    )


def _agree(got, want):
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, float)
            and isinstance(want, float)
            and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
        )
    return type(got) is type(want) and got == want


@given(
    rows=part_rows,
    cuts=st.lists(st.integers(0, 25), max_size=5),
    # (final grouped by g?, parts grouped by g?): parts never coarser.
    grains=st.sampled_from([(True, True), (False, True), (False, False)]),
)
@settings(max_examples=200, deadline=None)
def test_partials_re_aggregate_to_the_whole(rows, cuts, grains):
    grouped, parts_grouped = grains
    # Repeated and out-of-range cuts give empty parts; k >= 1 always.
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    whole = aggregate_at_once(rows, grouped)
    parts = aggregate_in_parts(rows, bounds, grouped, parts_grouped)
    assert parts.keys() == whole.keys()
    for key, want in whole.items():
        assert all(map(_agree, parts[key], want)), (key, parts[key], want)


def test_empty_parts_count_zero_and_sum_null():
    # Grouped parts of no rows leave the global fold no partials at all.
    calls = {call: n for n, call in enumerate(CALLS)}
    nulls = [(None, None, None, None)] * 3
    for rows, bounds in (([], [0, 0, 0]), (nulls, [0, 0, 3, 3])):
        (got,) = aggregate_in_parts(rows, bounds, grouped=False).values()
        assert got == aggregate_at_once(rows, grouped=False)[None]
        assert got[calls[("count", None)]] == len(rows)
        assert got[calls[("count", "i")]] == 0  # sum0: 0, not NULL
        assert got[calls[("sum", "i")]] is None
        assert got[calls[("sum", "f")]] is None
        assert got[calls[("avg", "f")]] is None
