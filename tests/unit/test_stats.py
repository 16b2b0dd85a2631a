"""Unit tests for on-the-fly statistics."""

import numpy as np
import pytest

from repro.batch import ColumnVector
from repro.core.stats import AttributeStatistics, StatisticsStore
from repro.datatypes import DataType


def _int_vec(values, nulls=None):
    values = np.asarray(values, dtype=np.int64)
    if nulls is None:
        nulls = np.zeros(len(values), dtype=np.bool_)
    return ColumnVector(DataType.INTEGER, values, np.asarray(nulls))


def _store(sample_size=256, seed=0x5EED):
    return StatisticsStore(
        sample_size=sample_size, histogram_buckets=8, seed=seed
    )


def _reference_sample(batches, k, seed):
    """Algorithm R one value at a time, drawing what the store draws:
    per batch, after the free slots are filled, one ``random`` and one
    ``integers`` per remaining value."""
    rng = np.random.default_rng(seed)
    sample, seen = [], 0
    for values in batches:
        take = min(k - len(sample), len(values))
        sample.extend(values[:take].tolist())
        rest = values[take:]
        seen += take
        if len(rest):
            arrival = seen + np.arange(1, len(rest) + 1)
            accept = rng.random(len(rest)) < k / arrival
            slots = rng.integers(0, k, size=len(rest))
            for i in np.flatnonzero(accept):
                sample[slots[i]] = rest[i : i + 1].tolist()[0]
            seen += len(rest)
    return sample


class TestObservation:
    def test_min_max_null_fraction(self):
        store = _store()
        store.observe("x", _int_vec([5, 1, 9], [False, False, False]))
        store.observe("x", _int_vec([0, 7], [True, False]))
        stats = store.get("x")
        assert stats.min_value == 1
        assert stats.max_value == 9
        assert stats.rows_seen == 5
        assert stats.null_count == 1
        assert stats.null_fraction == pytest.approx(0.2)

    def test_text_min_max(self):
        store = _store()
        vec = ColumnVector.from_pylist(DataType.TEXT, ["pear", "apple", "fig"])
        store.observe("s", vec)
        stats = store.get("s")
        assert stats.min_value == "apple"
        assert stats.max_value == "pear"

    def test_row_estimate_monotone(self):
        store = _store()
        store.set_row_estimate(100)
        store.set_row_estimate(50)
        assert store.row_estimate == 100

    def test_empty_vector_noop(self):
        store = _store()
        store.observe("x", _int_vec([]))
        assert store.get("x").rows_seen == 0


class TestReservoir:
    def test_sample_bounded(self):
        store = _store(sample_size=64)
        for __ in range(10):
            store.observe("x", _int_vec(np.arange(1000)))
        assert len(store.get("x").sample) == 64

    def test_small_input_fully_sampled(self):
        store = _store(sample_size=64)
        store.observe("x", _int_vec([1, 2, 3]))
        assert sorted(store.get("x").sample) == [1, 2, 3]

    def test_sample_is_typed(self):
        store = _store()
        store.observe("x", _int_vec([1]))
        assert store.get("x").sample.dtype == np.int64
        text = ColumnVector.from_pylist(DataType.TEXT, ["a", None])
        store.observe("s", text)
        assert store.get("s").sample.tolist() == ["a"]


class TestTypedReservoir:
    @pytest.mark.parametrize("seed", [0, 7, 0x5EED])
    def test_null_free_sample_equals_the_scalar_reference(self, seed):
        rng = np.random.default_rng(seed + 1)
        sizes = (100, 1000, 5, 3000, 17, 4096, 1)
        ints = [rng.integers(0, 1 << 40, n) for n in sizes]
        floats = [rng.random(n) for n in sizes]
        for name, batches, dtype in (
            ("i", ints, DataType.INTEGER),
            ("f", floats, DataType.FLOAT),
        ):
            store = _store(sample_size=256, seed=seed)
            for values in batches:
                store.observe(
                    name, ColumnVector.from_values(dtype, values)
                )
            sample = store.get(name).sample
            assert sample.dtype == dtype.numpy_dtype
            assert sample.tolist() == _reference_sample(batches, 256, seed)

    def test_text_sample_equals_the_scalar_reference(self):
        rng = np.random.default_rng(3)
        words = np.array([f"w{i}" for i in range(500)], dtype=object)
        batches = [words[rng.integers(0, 500, n)] for n in (300, 700, 900)]
        store = _store(sample_size=128, seed=11)
        for values in batches:
            store.observe("s", ColumnVector.from_pylist(DataType.TEXT, values))
        assert store.get("s").sample.tolist() == _reference_sample(
            batches, 128, 11
        )

    def test_values_of_a_null_heavy_batch_arrive(self):
        # 1024 zeros fill the sample; then 1024 sevens arrive among 3072
        # NULLs.  Algorithm R keeps each of the 2048 values with equal
        # probability: about half the sample must be sevens.
        store = _store(sample_size=1024)
        store.observe("x", _int_vec(np.zeros(1024)))
        nulls = np.arange(4096) % 4 != 0
        store.observe("x", _int_vec(np.full(4096, 7), nulls))
        stats = store.get("x")
        assert stats.rows_seen == 5120 and stats.null_count == 3072
        assert 0.45 < np.count_nonzero(stats.sample == 7) / 1024 < 0.55

    def test_null_bearing_estimates_center_on_the_truth(self):
        # About half the rows NULL, values uniform over 0..9.  Over many
        # seeds the estimates of ``= 3`` and ``BETWEEN 0 AND 4`` must
        # center on the true shares of rows, whatever batch sizes and
        # NULL runs the sample saw.
        data = np.random.default_rng(1)
        eq_error, range_error = [], []
        for seed in range(40):
            store = _store(sample_size=128, seed=seed)
            kept_eq = kept_range = rows = 0
            for size in (50, 300, 1000, 2000):
                values = data.integers(0, 10, size)
                nulls = data.random(size) < 0.5
                if size == 300:
                    nulls[:] = True  # a batch of nothing but NULLs
                store.observe("x", _int_vec(values, nulls))
                kept_eq += np.count_nonzero(~nulls & (values == 3))
                kept_range += np.count_nonzero(~nulls & (values <= 4))
                rows += size
            stats = store.get("x")
            eq_error.append(stats.selectivity_eq(3) - kept_eq / rows)
            range_error.append(
                stats.selectivity_range(0, 4) - kept_range / rows
            )
        assert abs(np.mean(eq_error)) < 0.01
        assert abs(np.mean(range_error)) < 0.015
        assert np.std(eq_error) < 0.025 and np.std(range_error) < 0.04


class TestEstimates:
    def test_distinct_low_cardinality(self):
        store = _store(sample_size=512)
        store.observe("x", _int_vec([1, 2, 3] * 100))
        est = store.get("x").distinct_estimate()
        assert est == pytest.approx(3.0)

    def test_distinct_high_cardinality_scales(self):
        store = _store(sample_size=128)
        rng = np.random.default_rng(0)
        stats = None
        for __ in range(8):
            store.observe("x", _int_vec(rng.integers(0, 1 << 40, 1000)))
        stats = store.get("x")
        assert stats.distinct_estimate() > 1000

    def test_selectivity_eq_uniform(self):
        store = _store(sample_size=1024)
        store.observe("x", _int_vec(np.arange(1000) % 10))
        sel = store.get("x").selectivity_eq(3)
        assert 0.05 < sel < 0.2  # true value 0.1

    def test_selectivity_eq_absent_value(self):
        store = _store(sample_size=1024)
        store.observe("x", _int_vec(np.arange(100)))
        sel = store.get("x").selectivity_eq(10**9)
        assert 0 < sel <= 0.05

    def test_selectivity_eq_null(self):
        store = _store()
        store.observe("x", _int_vec([1, 2], [True, False]))
        assert store.get("x").selectivity_eq(None) == pytest.approx(0.5)

    def test_selectivity_range(self):
        store = _store(sample_size=2048)
        store.observe("x", _int_vec(np.arange(1000)))
        stats = store.get("x")
        sel = stats.selectivity_range(0, 499)
        assert 0.4 < sel < 0.6
        assert stats.selectivity_range(None, None) == pytest.approx(1.0)
        assert stats.selectivity_range(2000, None) == 0.0

    def test_selectivity_range_empty_sample(self):
        stats = AttributeStatistics(
            "x", DataType.INTEGER, sample_size=8, histogram_buckets=4
        )
        assert 0 < stats.selectivity_range(0, 10) < 1

    def test_selectivity_like_prefix(self):
        store = _store()
        vec = ColumnVector.from_pylist(
            DataType.TEXT, ["apple", "apricot", "banana", "avocado"]
        )
        store.observe("s", vec)
        sel = store.get("s").selectivity_like_prefix("ap")
        assert sel == pytest.approx(0.5)

    def test_histogram(self):
        store = _store()
        store.observe("x", _int_vec(np.arange(100)))
        hist = store.get("x").histogram()
        assert hist is not None
        assert len(hist) == 9  # buckets + 1 boundaries
        assert hist[0] <= hist[-1]

    def test_histogram_none_for_text(self):
        store = _store()
        store.observe(
            "s", ColumnVector.from_pylist(DataType.TEXT, ["a", "b"])
        )
        assert store.get("s").histogram() is None


class TestStoreManagement:
    def test_invalidate(self):
        store = _store()
        store.observe("x", _int_vec([1]))
        store.set_row_estimate(10)
        store.invalidate()
        assert store.get("x") is None
        assert store.row_estimate == 0

    def test_attribute_names_and_describe(self):
        store = _store()
        store.observe("b", _int_vec([1]))
        store.observe("a", _int_vec([2]))
        assert store.attribute_names() == ["a", "b"]
        described = store.describe()
        assert {d["name"] for d in described} == {"a", "b"}

    def test_has(self):
        store = _store()
        assert not store.has("x")
        store.observe("x", _int_vec([1]))
        assert store.has("x")
