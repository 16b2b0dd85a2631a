"""Unit tests for the relational operators."""

import pytest

from repro.batch import Batch, ColumnVector
from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.executor.operators import (
    AggregateSpec,
    BatchSource,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Project,
    SingleRowSource,
    Sort,
)
from repro.sql.parser import parse_select


def _expr(fragment):
    return parse_select(f"SELECT {fragment}").items[0].expr


def _source(data, batch_rows=2):
    """BatchSource from {name: (dtype, values)} split into small batches."""
    vectors = {
        name: ColumnVector.from_pylist(dtype, values)
        for name, (dtype, values) in data.items()
    }
    n = len(next(iter(vectors.values()))) if vectors else 0
    types = {name: vec.dtype for name, vec in vectors.items()}

    def factory():
        for r0 in range(0, n, batch_rows):
            yield Batch(
                {
                    name: vec.slice(r0, min(n, r0 + batch_rows))
                    for name, vec in vectors.items()
                }
            )

    return BatchSource(factory, types)


def _collect(op):
    rows = []
    types = op.output_types()
    names = list(types)
    for batch in op.execute():
        lists = [batch.column(n).to_pylist() for n in names]
        rows.extend(zip(*lists))
    return names, rows


class TestFilterProject:
    def test_filter(self):
        src = _source({"a": (DataType.INTEGER, [1, 5, 3, 8])})
        __, rows = _collect(Filter(src, _expr("a > 2")))
        assert rows == [(5,), (3,), (8,)]

    def test_filter_drops_all(self):
        src = _source({"a": (DataType.INTEGER, [1, 2])})
        __, rows = _collect(Filter(src, _expr("a > 99")))
        assert rows == []

    def test_project_computes_and_renames(self):
        src = _source({"a": (DataType.INTEGER, [1, 2])})
        op = Project(src, [("double", _expr("a * 2")), ("a", _expr("a"))])
        names, rows = _collect(op)
        assert names == ["double", "a"]
        assert rows == [(2, 1), (4, 2)]

    def test_project_duplicate_names_raise(self):
        src = _source({"a": (DataType.INTEGER, [1])})
        with pytest.raises(ExecutionError):
            Project(src, [("x", _expr("a")), ("x", _expr("a"))])

    def test_project_empty_raises(self):
        src = _source({"a": (DataType.INTEGER, [1])})
        with pytest.raises(ExecutionError):
            Project(src, [])


class TestHashJoin:
    def _tables(self):
        left = _source(
            {
                "l.k": (DataType.INTEGER, [1, 2, 3, None]),
                "l.v": (DataType.TEXT, ["a", "b", "c", "d"]),
            }
        )
        right = _source(
            {
                "r.k": (DataType.INTEGER, [2, 3, 3, 5]),
                "r.w": (DataType.INTEGER, [20, 30, 31, 50]),
            }
        )
        return left, right

    def test_inner_join(self):
        left, right = self._tables()
        op = HashJoin(left, right, ["l.k"], ["r.k"])
        __, rows = _collect(op)
        assert sorted(rows) == [
            (2, "b", 2, 20),
            (3, "c", 3, 30),
            (3, "c", 3, 31),
        ]

    def test_left_join_pads_nulls(self):
        left, right = self._tables()
        op = HashJoin(left, right, ["l.k"], ["r.k"], kind="left")
        __, rows = _collect(op)
        assert (1, "a", None, None) in rows
        assert (None, "d", None, None) in rows  # NULL key never matches
        assert len(rows) == 5

    def test_null_keys_never_match(self):
        left = _source({"l.k": (DataType.INTEGER, [None])})
        right = _source({"r.k": (DataType.INTEGER, [None])})
        __, rows = _collect(HashJoin(left, right, ["l.k"], ["r.k"]))
        assert rows == []

    def test_multi_key_join(self):
        left = _source(
            {
                "l.a": (DataType.INTEGER, [1, 1, 2]),
                "l.b": (DataType.INTEGER, [1, 2, 2]),
            }
        )
        right = _source(
            {
                "r.a": (DataType.INTEGER, [1, 2]),
                "r.b": (DataType.INTEGER, [2, 2]),
            }
        )
        __, rows = _collect(
            HashJoin(left, right, ["l.a", "l.b"], ["r.a", "r.b"])
        )
        assert sorted(rows) == [(1, 2, 1, 2), (2, 2, 2, 2)]

    def test_overlapping_names_raise(self):
        left = _source({"k": (DataType.INTEGER, [1])})
        right = _source({"k": (DataType.INTEGER, [1])})
        with pytest.raises(ExecutionError):
            HashJoin(left, right, ["k"], ["k"]).output_types()

    def test_key_list_validation(self):
        left = _source({"a": (DataType.INTEGER, [1])})
        right = _source({"b": (DataType.INTEGER, [1])})
        with pytest.raises(ExecutionError):
            HashJoin(left, right, [], [])
        with pytest.raises(ExecutionError):
            HashJoin(left, right, ["a"], ["b"], kind="full")


class TestHashAggregate:
    def test_global_aggregates(self):
        src = _source({"a": (DataType.INTEGER, [1, 2, 3, None])})
        op = HashAggregate(
            src,
            [],
            [
                AggregateSpec("n", "count", None),
                AggregateSpec("nn", "count", _expr("a")),
                AggregateSpec("s", "sum", _expr("a")),
                AggregateSpec("avg", "avg", _expr("a")),
                AggregateSpec("lo", "min", _expr("a")),
                AggregateSpec("hi", "max", _expr("a")),
            ],
        )
        __, rows = _collect(op)
        assert rows == [(4, 3, 6, 2.0, 1, 3)]

    def test_empty_input_single_row(self):
        src = _source({"a": (DataType.INTEGER, [])})
        op = HashAggregate(
            src,
            [],
            [
                AggregateSpec("n", "count", None),
                AggregateSpec("s", "sum", _expr("a")),
            ],
        )
        __, rows = _collect(op)
        assert rows == [(0, None)]

    def test_grouped(self):
        src = _source(
            {
                "g": (DataType.TEXT, ["x", "y", "x", "y", "x"]),
                "v": (DataType.INTEGER, [1, 2, 3, 4, 5]),
            }
        )
        op = HashAggregate(
            src,
            [("g", _expr("g"))],
            [AggregateSpec("total", "sum", _expr("v"))],
        )
        __, rows = _collect(op)
        assert sorted(rows) == [("x", 9), ("y", 6)]

    def test_null_group_key(self):
        src = _source(
            {
                "g": (DataType.INTEGER, [1, None, 1, None]),
                "v": (DataType.INTEGER, [1, 2, 3, 4]),
            }
        )
        op = HashAggregate(
            src,
            [("g", _expr("g"))],
            [AggregateSpec("n", "count", None)],
        )
        __, rows = _collect(op)
        assert sorted(rows, key=str) == [(1, 2), (None, 2)]

    def test_count_distinct(self):
        src = _source({"a": (DataType.INTEGER, [1, 1, 2, None, 2])})
        op = HashAggregate(
            src, [], [AggregateSpec("d", "count", _expr("a"), distinct=True)]
        )
        __, rows = _collect(op)
        assert rows == [(2,)]

    def test_distinct_aggregates_count_nan_once(self):
        nan = float("nan")
        src = _source(
            {"f": (DataType.FLOAT, [nan, 1.0, nan, None, 1.0, -0.0, 0.0])},
            batch_rows=3,
        )
        op = HashAggregate(
            src,
            [],
            [
                AggregateSpec("n", "count", _expr("f"), distinct=True),
                AggregateSpec("s", "sum", _expr("f"), distinct=True),
            ],
        )
        [(n, s)] = _collect(op)[1]
        assert n == 3 and s != s  # NaN, 1.0 and -0.0 (= 0.0)

    def test_min_max_text(self):
        src = _source({"s": (DataType.TEXT, ["pear", "apple", "fig"])})
        op = HashAggregate(
            src,
            [],
            [
                AggregateSpec("lo", "min", _expr("s")),
                AggregateSpec("hi", "max", _expr("s")),
            ],
        )
        __, rows = _collect(op)
        assert rows == [("apple", "pear")]

    def test_sum_text_raises(self):
        src = _source({"s": (DataType.TEXT, ["a"])})
        op = HashAggregate(src, [], [AggregateSpec("s", "sum", _expr("s"))])
        with pytest.raises(ExecutionError):
            op.output_types()

    # 2^53 + 1: a float accumulator (the old operator's) rounds the sum
    # of two of these to ...984; the exact answer ends in ...986.
    ODD = 9007199254740993

    def test_integer_sum_exact_above_2_53(self):
        src = _source({"a": (DataType.INTEGER, [self.ODD, self.ODD, None])})
        specs = [
            AggregateSpec("s", "sum", _expr("a")),
            AggregateSpec("s0", "sum0", _expr("a")),
            AggregateSpec("d", "sum", _expr("a"), distinct=True),
        ]
        __, rows = _collect(HashAggregate(src, [], specs))
        assert rows == [(2 * self.ODD, 2 * self.ODD, self.ODD)]

    def test_grouped_integer_sum_exact_above_2_53(self):
        src = _source(
            {
                "g": (DataType.TEXT, ["x", "y", "x", "y", "x"]),
                "a": (DataType.INTEGER, [self.ODD, 1, self.ODD, 2, 1]),
            }
        )
        op = HashAggregate(
            src, [("g", _expr("g"))], [AggregateSpec("s", "sum", _expr("a"))]
        )
        __, rows = _collect(op)
        assert rows == [("x", 2 * self.ODD + 1), ("y", 3)]

    def test_integer_sum_survives_int64_wrap_within_a_batch(self):
        # Partial sums leave int64 and come back: 2^62 * 3 - 2^62 * 2.
        big = 2**62
        values = [big, big, big, -big, -big]
        src = _source({"a": (DataType.INTEGER, values)}, batch_rows=5)
        op = HashAggregate(src, [], [AggregateSpec("s", "sum", _expr("a"))])
        assert _collect(op)[1] == [(big,)]

    def test_integer_sum_out_of_range_is_typed(self):
        src = _source({"a": (DataType.INTEGER, [2**62, 2**62])})
        op = HashAggregate(src, [], [AggregateSpec("s", "sum", _expr("a"))])
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            _collect(op)

    def test_global_integer_sum_crosses_int64_after_the_summed_batches(self):
        # The first batch is summed as int64; the second one's bound
        # passes int64 and the state turns into Python ints mid-stream.
        big = 2**61
        values = [big, big, 3 * big, -3 * big, big, -big]
        src = _source({"a": (DataType.INTEGER, values)}, batch_rows=2)
        specs = [
            AggregateSpec("s", "sum", _expr("a")),
            AggregateSpec("avg", "avg", _expr("a")),
        ]
        assert _collect(HashAggregate(src, [], specs))[1] == [
            (2 * big, 2 * big / 6)
        ]

    def test_global_counts_skip_nulls_across_batches(self):
        values = [1, None, None, None, 3, None, 4]
        src = _source({"a": (DataType.INTEGER, values)}, batch_rows=2)
        specs = [
            AggregateSpec("n", "count", None),
            AggregateSpec("nn", "count", _expr("a")),
            AggregateSpec("s", "sum", _expr("a")),
            AggregateSpec("avg", "avg", _expr("a")),
        ]
        assert _collect(HashAggregate(src, [], specs))[1] == [
            (7, 3, 8, 8 / 3)
        ]

    def test_group_by_that_has_met_one_group_so_far(self):
        # Two batches of key "x" alone, then "y" arrives and "x" again.
        src = _source(
            {
                "g": (DataType.TEXT, ["x", "x", "x", "x", "y", "x"]),
                "v": (DataType.INTEGER, [1, None, 3, 4, 5, 6]),
                "f": (DataType.FLOAT, [0.5, 1.5, None, 2.5, 3.5, 4.5]),
            },
            batch_rows=2,
        )
        op = HashAggregate(
            src,
            [("g", _expr("g"))],
            [
                AggregateSpec("n", "count", None),
                AggregateSpec("nv", "count", _expr("v")),
                AggregateSpec("s", "sum", _expr("v")),
                AggregateSpec("fs", "sum", _expr("f")),
            ],
        )
        assert _collect(op)[1] == [("x", 5, 4, 14, 9.0), ("y", 1, 1, 5, 3.5)]

    def test_float_sums_bit_identical_across_batch_cuts(self):
        values = [1e16, 1.0, -1e16, 0.1, 1.0, 3e-5, 1e16, 0.7, -1e16, 2.2]
        total = 0.0
        for v in values:
            total += v
        for batch_rows in (1, 3, 4, len(values)):
            src = _source({"f": (DataType.FLOAT, values)}, batch_rows)
            specs = [
                AggregateSpec("s", "sum", _expr("f")),
                AggregateSpec("avg", "avg", _expr("f")),
            ]
            rows = _collect(HashAggregate(src, [], specs))[1]
            assert rows == [(total, total / len(values))]

    def test_groups_keep_first_appearance_order_across_batches(self):
        src = _source(
            {
                "g": (DataType.INTEGER, [9, 3, 9, None, 3, 1, None]),
                "h": (DataType.TEXT, ["b", "b", "b", "a", "b", "a", "a"]),
            },
            batch_rows=3,
        )
        op = HashAggregate(
            src,
            [("g", _expr("g")), ("h", _expr("h"))],
            [AggregateSpec("n", "count", None)],
        )
        __, rows = _collect(op)
        assert rows == [(9, "b", 2), (3, "b", 2), (None, "a", 2), (1, "a", 1)]

    def test_float_min_max_ignore_nan(self):
        nan = float("nan")
        src = _source({"f": (DataType.FLOAT, [nan, 2.0, nan, -1.0, None])})
        specs = [
            AggregateSpec("lo", "min", _expr("f")),
            AggregateSpec("hi", "max", _expr("f")),
            AggregateSpec("n", "count", _expr("f")),
        ]
        assert _collect(HashAggregate(src, [], specs))[1] == [(-1.0, 2.0, 4)]

    def test_min_max_keep_boolean_and_date_types(self):
        src = _source(
            {
                "b": (DataType.BOOLEAN, [True, None, False]),
                "d": (DataType.DATE, [15_000, 14_000, None]),
            }
        )
        specs = [
            AggregateSpec("bl", "min", _expr("b")),
            AggregateSpec("bh", "max", _expr("b")),
            AggregateSpec("dl", "min", _expr("d")),
        ]
        op = HashAggregate(src, [], specs)
        assert list(op.output_types().values()) == [
            DataType.BOOLEAN, DataType.BOOLEAN, DataType.DATE
        ]
        (row,) = _collect(op)[1]
        assert row == (False, True, 14_000)
        assert [type(v) for v in row] == [bool, bool, int]


def _own_dictionaries(types, batches):
    """BatchSource of ``batches`` (lists of row tuples), each batch
    built on its own, so every TEXT column has its own dictionary."""
    names = list(types)

    def factory():
        for rows in batches:
            columns = list(zip(*rows)) if rows else [()] * len(names)
            yield Batch(
                {
                    name: ColumnVector.from_pylist(types[name], column)
                    for name, column in zip(names, columns)
                }
            )

    return BatchSource(factory, dict(types))


def _reference_groups(rows, n_keys):
    """Per-row Python: groups in first-appearance order with COUNT(*);
    NULL is one group, NaN is one group, -0.0 equals 0.0."""
    groups = {}
    for row in rows:
        key = tuple("nan" if v != v else v for v in row[:n_keys])
        if key not in groups:
            groups[key] = [row[:n_keys], 0]
        groups[key][1] += 1
    return [(*first, count) for first, count in groups.values()]


class TestGroupIds:
    """Operator-wide group ids: first-appearance order across batches,
    whatever dictionaries and value sets each batch brings."""

    def _run(self, types, batches, n_keys=None):
        n_keys = len(types) if n_keys is None else n_keys
        keys = list(types)[:n_keys]
        op = HashAggregate(
            _own_dictionaries(types, batches),
            [(k, _expr(k)) for k in keys],
            [AggregateSpec("n", "count", None)],
        )
        return _collect(op)[1]

    def test_order_null_nan_and_signed_zero(self):
        nan = float("nan")
        batches = [
            [(2.0,), (None,), (nan,)],
            [(-0.0,), (nan,), (2.0,), (0.0,)],
            [(None,), (1.5,), (-0.0,)],
        ]
        got = self._run({"f": DataType.FLOAT}, batches)
        rows = [r for b in batches for r in b]
        want = _reference_groups(rows, 1)
        assert len(got) == len(want) == 5
        for g, w in zip(got, want):
            assert (g[0] != g[0] and w[0] != w[0]) or g[0] == w[0]
            assert g[1] == w[1]
        # -0.0 first appeared as -0.0: its group keeps that value.
        assert str(got[3][0]) == "-0.0"

    def test_text_integer_key_with_earlier_sorting_strings_later(self):
        batches = [
            [("m", 1), ("z", 2), ("m", 1)],
            [("c", 1), ("m", 2), (None, 1)],  # "c" sorts before "m"
            [("a", None), ("c", 1), ("é", 2), ("b", 2), (None, 1)],
            [],
            [("a", None), ("m", 1)],
        ]
        types = {"s": DataType.TEXT, "i": DataType.INTEGER}
        rows = [r for b in batches for r in b]
        assert self._run(types, batches) == _reference_groups(rows, 2)
        # The TEXT key alone, and ordered by the key column.
        assert self._run(types, batches, 1) == _reference_groups(rows, 1)

    def test_more_distinct_keys_than_rows_per_batch(self):
        import random

        rng = random.Random(7)
        rows = [
            (
                rng.choice([None, *(f"k{i:03d}" for i in range(300))]),
                rng.randrange(-40, 40),
                rng.choice([None, 1.0, 2.5, -0.0, 0.0]),
            )
            for __ in range(2000)
        ]
        batches = [rows[i : i + 64] for i in range(0, len(rows), 64)]
        types = {
            "s": DataType.TEXT,
            "i": DataType.INTEGER,
            "f": DataType.FLOAT,
        }
        got = self._run(types, batches)
        assert got == _reference_groups(rows, 3)
        assert len(got) > 64
        assert self._run(types, batches, 2) == _reference_groups(rows, 2)


def test_integer_sum_exact_through_the_engine(tmp_path):
    from repro import PostgresRaw
    from repro.catalog.schema import TableSchema
    from repro.rawio.writer import write_csv

    odd = TestHashAggregate.ODD
    schema = TableSchema.from_pairs([("g", "text"), ("a", "integer")])
    path = tmp_path / "t.csv"
    write_csv(path, [("x", odd), ("y", 5), ("x", odd)], schema)
    with PostgresRaw() as engine:
        engine.register_csv("t", path, schema)
        assert list(engine.query("SELECT SUM(a) FROM t")) == [(2 * odd + 5,)]
        grouped = engine.query("SELECT g, SUM(a) FROM t GROUP BY g ORDER BY g")
        assert list(grouped) == [("x", 2 * odd), ("y", 5)]


def test_order_by_nan_through_the_engine(tmp_path):
    from repro import PostgresRaw
    from repro.catalog.schema import TableSchema

    # ``nan`` and ``NaN`` parse as FLOAT NaN, the empty field as NULL.
    path = tmp_path / "t.csv"
    path.write_text("a,f\n1,3.0\n2,nan\n3,1.0\n4,\n5,2.0\n6,NaN\n7,0.5\n")
    schema = TableSchema.from_pairs([("a", "integer"), ("f", "float")])
    with PostgresRaw() as engine:
        engine.register_csv("t", path, schema)

        def query(sql):
            return [tuple(map(repr, row)) for row in engine.query(sql)]

        # NaN above every number, as in PostgreSQL; NULLs last ascending
        # and first descending; the two NaNs keep their file order.
        ascending = [
            ("7", "0.5"),
            ("3", "1.0"),
            ("5", "2.0"),
            ("1", "3.0"),
            ("2", "nan"),
            ("6", "nan"),
            ("4", "None"),
        ]
        assert query("SELECT a, f FROM t ORDER BY f") == ascending
        descending = [
            ("4", "None"),
            ("2", "nan"),
            ("6", "nan"),
            ("1", "3.0"),
            ("5", "2.0"),
            ("3", "1.0"),
            ("7", "0.5"),
        ]
        assert query("SELECT a, f FROM t ORDER BY f DESC") == descending
        assert query("SELECT f FROM t ORDER BY f LIMIT 3") == [
            ("0.5",),
            ("1.0",),
            ("2.0",),
        ]


class TestSortLimitDistinct:
    def test_sort_asc_desc(self):
        src = _source({"a": (DataType.INTEGER, [3, 1, 2])})
        __, rows = _collect(Sort(src, [(_expr("a"), True)]))
        assert rows == [(1,), (2,), (3,)]
        __, rows = _collect(Sort(src, [(_expr("a"), False)]))
        assert rows == [(3,), (2,), (1,)]

    def test_sort_nulls_last_asc_first_desc(self):
        src = _source({"a": (DataType.INTEGER, [2, None, 1])})
        __, rows = _collect(Sort(src, [(_expr("a"), True)]))
        assert rows == [(1,), (2,), (None,)]
        __, rows = _collect(Sort(src, [(_expr("a"), False)]))
        assert rows == [(None,), (2,), (1,)]

    def test_multi_key_sort_stable(self):
        src = _source(
            {
                "a": (DataType.INTEGER, [1, 2, 1, 2]),
                "b": (DataType.INTEGER, [9, 8, 7, 6]),
            }
        )
        op = Sort(src, [(_expr("a"), True), (_expr("b"), False)])
        __, rows = _collect(op)
        assert rows == [(1, 9), (1, 7), (2, 8), (2, 6)]

    def test_sort_requires_keys(self):
        src = _source({"a": (DataType.INTEGER, [1])})
        with pytest.raises(ExecutionError):
            Sort(src, [])

    def test_limit_and_offset_across_batches(self):
        src = _source({"a": (DataType.INTEGER, list(range(10)))}, batch_rows=3)
        __, rows = _collect(Limit(src, 4, 3))
        assert rows == [(3,), (4,), (5,), (6,)]

    def test_limit_none_passthrough(self):
        src = _source({"a": (DataType.INTEGER, [1, 2])})
        __, rows = _collect(Limit(src, None, 1))
        assert rows == [(2,)]

    def test_limit_zero(self):
        src = _source({"a": (DataType.INTEGER, [1, 2])})
        __, rows = _collect(Limit(src, 0))
        assert rows == []

    def test_distinct(self):
        src = _source(
            {"a": (DataType.INTEGER, [1, 2, 1, None, None, 2])},
            batch_rows=2,
        )
        __, rows = _collect(Distinct(src))
        assert rows == [(1,), (2,), (None,)]

    def test_distinct_nan_is_one_value(self):
        # As GROUP BY and PostgreSQL: one NaN row, and -0.0 equal to 0.0
        # (the first row of each stays).
        nan = float("nan")
        src = _source(
            {"f": (DataType.FLOAT, [nan, -0.0, nan, 0.0, None, nan])},
            batch_rows=2,
        )
        __, rows = _collect(Distinct(src))
        assert [repr(row[0]) for row in rows] == ["nan", "-0.0", "None"]

    def test_distinct_streams_under_a_limit(self):
        def factory():
            ones = ColumnVector.from_pylist(DataType.INTEGER, [1, 1])
            yield Batch({"a": ones})
            raise AssertionError("pulled past the first batch")

        src = BatchSource(factory, {"a": DataType.INTEGER})
        __, rows = _collect(Limit(Distinct(src), 1))
        assert rows == [(1,)]


class TestMisc:
    def test_single_row_source(self):
        batches = list(SingleRowSource().execute())
        assert len(batches) == 1 and batches[0].num_rows == 1

    def test_explain_lines_nested(self):
        src = _source({"a": (DataType.INTEGER, [1])})
        plan = Limit(Filter(src, _expr("a > 0")), 1)
        lines = plan.explain_lines()
        assert lines[0].startswith("Limit")
        assert lines[1].strip().startswith("Filter")
