"""Unit tests for ColumnVector and Batch."""

import numpy as np
import pytest

from repro.batch import Batch, ColumnVector
from repro.datatypes import DataType
from repro.errors import ExecutionError


def _int_vector(values, nulls=None):
    return ColumnVector(
        DataType.INTEGER,
        np.asarray(values, dtype=np.int64),
        np.asarray(
            nulls if nulls is not None else [False] * len(values),
            dtype=np.bool_,
        ),
    )


class TestColumnVector:
    def test_length_mismatch_raises(self):
        with pytest.raises(ExecutionError):
            ColumnVector(
                DataType.INTEGER,
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.bool_),
            )

    def test_from_pylist_nulls(self):
        vec = ColumnVector.from_pylist(DataType.INTEGER, [1, None, 3])
        assert vec.null_mask.tolist() == [False, True, False]
        assert vec.to_pylist() == [1, None, 3]

    def test_from_pylist_text(self):
        vec = ColumnVector.from_pylist(DataType.TEXT, ["x", None])
        assert vec.to_pylist() == ["x", None]

    def test_take_and_filter(self):
        vec = _int_vector([10, 20, 30, 40], [False, True, False, False])
        taken = vec.take(np.array([3, 0]))
        assert taken.to_pylist() == [40, 10]
        kept = vec.filter(np.array([True, True, False, False]))
        assert kept.to_pylist() == [10, None]

    def test_slice(self):
        vec = _int_vector([1, 2, 3, 4])
        assert vec.slice(1, 3).to_pylist() == [2, 3]

    @pytest.mark.parametrize(
        "dtype, items, element_type",
        [
            (DataType.INTEGER, [7, -(2**62), 0], int),
            (DataType.FLOAT, [1.5, -0.0, float("inf")], float),
            (DataType.BOOLEAN, [True, False, True], bool),
            (DataType.DATE, [0, 15_000, -1], int),
            (DataType.TEXT, ["a", "", "né"], str),
        ],
        ids=lambda v: v.value if isinstance(v, DataType) else None,
    )
    @pytest.mark.parametrize("null_at", [(), (1,), (0, 1, 2)])
    def test_to_pylist_element_types(
        self, dtype, items, element_type, null_at
    ):
        # Exact builtin types (not numpy scalars, not bool-as-int) per
        # dtype, and NULL slots as None whatever value sits under them.
        items = [None if i in null_at else v for i, v in enumerate(items)]
        out = ColumnVector.from_pylist(dtype, items).to_pylist()
        assert out == items
        assert [type(v) for v in out] == [
            type(None) if v is None else element_type for v in items
        ]

    def test_to_pylist_follows_declared_dtype(self):
        # An INTEGER vector whose array is float64 still yields ints.
        vec = ColumnVector.from_values(DataType.INTEGER, np.array([2.0, 3.0]))
        out = vec.to_pylist()
        assert out == [2, 3] and all(type(v) is int for v in out)

    def test_to_pylist_empty(self):
        assert ColumnVector.from_pylist(DataType.TEXT, []).to_pylist() == []

    def test_concat(self):
        a = _int_vector([1, 2])
        b = _int_vector([3], [True])
        merged = ColumnVector.concat([a, b])
        assert merged.to_pylist() == [1, 2, None]

    def test_concat_type_mismatch_raises(self):
        a = _int_vector([1])
        b = ColumnVector.from_pylist(DataType.TEXT, ["x"])
        with pytest.raises(ExecutionError):
            ColumnVector.concat([a, b])
        with pytest.raises(ExecutionError):
            ColumnVector.concat([])

    def test_nbytes_text_vs_numeric(self):
        numeric = _int_vector([1, 2, 3])
        assert numeric.nbytes() >= 3 * 8
        text = ColumnVector.from_pylist(DataType.TEXT, ["abc" * 50])
        assert text.nbytes() > 100


class TestBatch:
    def test_ragged_raises(self):
        with pytest.raises(ExecutionError):
            Batch({"a": _int_vector([1, 2]), "b": _int_vector([1])})

    def test_zero_column_batch_keeps_num_rows(self):
        batch = Batch({}, num_rows=7)
        assert batch.num_rows == 7
        assert len(batch) == 7

    def test_explicit_num_rows_must_match(self):
        with pytest.raises(ExecutionError):
            Batch({"a": _int_vector([1, 2])}, num_rows=3)

    def test_column_lookup_error_lists_names(self):
        batch = Batch({"a": _int_vector([1])})
        with pytest.raises(ExecutionError, match="'b'"):
            batch.column("b")

    def test_with_column_length_check(self):
        batch = Batch({"a": _int_vector([1, 2])})
        with pytest.raises(ExecutionError):
            batch.with_column("b", _int_vector([1]))
        extended = batch.with_column("b", _int_vector([5, 6]))
        assert extended.column_names() == ["a", "b"]

    def test_select_filter_take_slice(self):
        batch = Batch(
            {"a": _int_vector([1, 2, 3]), "b": _int_vector([4, 5, 6])}
        )
        assert batch.select(["b"]).column_names() == ["b"]
        filtered = batch.filter(np.array([True, False, True]))
        assert filtered.column("a").to_pylist() == [1, 3]
        taken = batch.take(np.array([2, 2]))
        assert taken.column("b").to_pylist() == [6, 6]
        assert batch.slice(0, 1).num_rows == 1

    def test_rows_iteration(self):
        batch = Batch(
            {"a": _int_vector([1, 2]), "b": _int_vector([3, 4])}
        )
        assert list(batch.rows()) == [(1, 3), (2, 4)]

    def test_concat_batches(self):
        a = Batch({"x": _int_vector([1])})
        b = Batch({"x": _int_vector([2, 3])})
        merged = Batch.concat([a, b])
        assert merged.column("x").to_pylist() == [1, 2, 3]

    def test_concat_empty_list(self):
        assert Batch.concat([]).num_rows == 0

    def test_empty_like(self):
        batch = Batch.empty_like({"a": DataType.INTEGER, "b": DataType.TEXT})
        assert batch.num_rows == 0
        assert batch.column_names() == ["a", "b"]

    def test_to_pydict(self):
        batch = Batch({"a": _int_vector([1, 2])})
        assert batch.to_pydict() == {"a": [1, 2]}
