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
    return StatisticsStore(sample_size=sample_size, seed=seed)


def _observe_all(store, name, vectors):
    """Observe ``vectors`` as consecutive table rows from row 0."""
    row = 0
    for vector in vectors:
        store.observe(name, vector, row)
        row += len(vector)


def _reference_sample(store, name, batches, k):
    """Bottom-k one row at a time: the non-NULL rows sorted by their
    priority (splitmix64's finalizer of the column's salt plus the row
    times its gamma), the first ``k`` kept."""
    salt = int(store.get(name).salt)
    mask = (1 << 64) - 1

    def priority(row):
        z = (salt + row * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    rows = [value for values in batches for value in values]
    order = sorted(
        (i for i, value in enumerate(rows) if value is not None),
        key=priority,
    )
    return [rows[i] for i in order[:k]]


class TestObservation:
    def test_min_max_null_fraction(self):
        store = _store()
        store.observe("x", _int_vec([5, 1, 9], [False, False, False]), 0)
        store.observe("x", _int_vec([0, 7], [True, False]), 3)
        stats = store.get("x")
        assert stats.min_value == 1
        assert stats.max_value == 9
        assert stats.rows_seen == 5
        assert stats.null_count == 1
        assert stats.null_fraction == pytest.approx(0.2)

    def test_text_min_max(self):
        store = _store()
        vec = ColumnVector.from_pylist(DataType.TEXT, ["pear", "apple", "fig"])
        store.observe("s", vec, 0)
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
        store.observe("x", _int_vec([]), 0)
        assert store.get("x").rows_seen == 0


class TestRowsCountOnce:
    def test_reobserved_rows_change_nothing(self):
        store = _store(sample_size=16)
        rng = np.random.default_rng(2)
        values = rng.integers(0, 1000, 100)
        nulls = rng.random(100) < 0.3
        store.observe("x", _int_vec(values, nulls), 0)
        stats = store.get("x")
        before = (
            stats.rows_seen,
            stats.null_count,
            stats.min_value,
            stats.max_value,
            stats.sample.tolist(),
        )
        # The same rows again, whole and in overlapping pieces.
        store.observe("x", _int_vec(values, nulls), 0)
        store.observe("x", _int_vec(values[10:60], nulls[10:60]), 10)
        after = (
            stats.rows_seen,
            stats.null_count,
            stats.min_value,
            stats.max_value,
            stats.sample.tolist(),
        )
        assert after == before

    def test_only_unseen_rows_fold(self):
        # Rows [10, 20) and [30, 40) are seen; [0, 50) adds the other 30.
        store = _store(sample_size=64)
        store.observe("x", _int_vec(np.arange(10, 20)), 10)
        store.observe("x", _int_vec(np.arange(30, 40)), 30)
        store.observe("x", _int_vec(np.arange(50)), 0)
        stats = store.get("x")
        assert stats.rows_seen == 50
        assert sorted(stats.sample.tolist()) == list(range(50))
        fresh = _store(sample_size=64)
        fresh.observe("x", _int_vec(np.arange(50)), 0)
        assert stats.sample.tolist() == fresh.get("x").sample.tolist()

    def test_intervals_merge(self):
        store = _store()
        for lo in (40, 0, 20, 10, 30):
            store.observe("x", _int_vec(np.arange(lo, lo + 10)), lo)
        stats = store.get("x")
        assert stats._seen == [0, 50]
        store.observe("x", _int_vec(np.arange(60, 70)), 60)
        store.observe("x", _int_vec(np.arange(80, 90)), 80)
        assert stats._seen == [0, 50, 60, 70, 80, 90]
        store.observe("x", _int_vec(np.arange(55, 65)), 55)
        assert stats._seen == [0, 50, 55, 70, 80, 90]
        store.observe("x", _int_vec(np.arange(45, 82)), 45)
        assert stats._seen == [0, 90]
        assert stats.rows_seen == 90
        assert sorted(stats.sample.tolist()) == list(range(90))


class TestSample:
    def test_sample_bounded(self):
        store = _store(sample_size=64)
        for i in range(10):
            store.observe("x", _int_vec(np.arange(1000)), 1000 * i)
        assert len(store.get("x").sample) == 64

    def test_small_input_fully_sampled(self):
        store = _store(sample_size=64)
        store.observe("x", _int_vec([1, 2, 3]), 0)
        assert sorted(store.get("x").sample) == [1, 2, 3]

    def test_sample_is_typed(self):
        store = _store()
        store.observe("x", _int_vec([1]), 0)
        assert store.get("x").sample.dtype == np.int64
        text = ColumnVector.from_pylist(DataType.TEXT, ["a", None])
        store.observe("s", text, 0)
        assert store.get("s").sample.tolist() == ["a"]

    def test_columns_are_salted_apart(self):
        # The same rows of two columns (or under two seeds) are sampled
        # independently.
        vec = _int_vec(np.arange(4096))
        samples = []
        for seed, name in ((1, "x"), (1, "y"), (2, "x")):
            store = _store(sample_size=32, seed=seed)
            store.observe(name, vec, 0)
            samples.append(set(store.get(name).sample.tolist()))
        assert len(samples[0] & samples[1]) < 8
        assert len(samples[0] & samples[2]) < 8


class TestPrioritySample:
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
            _observe_all(
                store,
                name,
                [ColumnVector.from_values(dtype, v) for v in batches],
            )
            sample = store.get(name).sample
            assert sample.dtype == dtype.numpy_dtype
            assert sample.tolist() == _reference_sample(
                store, name, [v.tolist() for v in batches], 256
            )

    def test_text_sample_equals_the_scalar_reference(self):
        rng = np.random.default_rng(3)
        words = np.array([f"w{i}" for i in range(500)], dtype=object)
        batches = [
            words[rng.integers(0, 500, n)].tolist() for n in (300, 700, 900)
        ]
        store = _store(sample_size=128, seed=11)
        _observe_all(
            store,
            "s",
            [ColumnVector.from_pylist(DataType.TEXT, v) for v in batches],
        )
        assert store.get("s").sample.tolist() == _reference_sample(
            store, "s", batches, 128
        )

    def test_null_heavy_sample_equals_the_scalar_reference(self):
        rng = np.random.default_rng(5)
        batches = []
        for size in (64, 300, 2000, 700):
            values = rng.integers(0, 100, size).tolist()
            nulls = rng.random(size) < (1.0 if size == 300 else 0.8)
            batches.append(
                [None if n else v for v, n in zip(values, nulls)]
            )
        store = _store(sample_size=64, seed=9)
        _observe_all(
            store,
            "x",
            [ColumnVector.from_pylist(DataType.INTEGER, v) for v in batches],
        )
        stats = store.get("x")
        assert stats.sample.tolist() == _reference_sample(
            store, "x", batches, 64
        )
        assert stats.null_count == sum(v is None for b in batches for v in b)

    def test_values_of_a_null_heavy_batch_arrive(self):
        # 1024 zeros fill the sample; then 1024 sevens arrive among 3072
        # NULLs.  A uniform sample keeps each of the 2048 values with
        # equal probability: about half the sample must be sevens.
        store = _store(sample_size=1024)
        store.observe("x", _int_vec(np.zeros(1024)), 0)
        nulls = np.arange(4096) % 4 != 0
        store.observe("x", _int_vec(np.full(4096, 7), nulls), 1024)
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
                store.observe("x", _int_vec(values, nulls), rows)
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
        store.observe("x", _int_vec([1, 2, 3] * 100), 0)
        est = store.get("x").distinct_estimate()
        assert est == pytest.approx(3.0)

    def test_distinct_high_cardinality_scales(self):
        store = _store(sample_size=128)
        rng = np.random.default_rng(0)
        for i in range(8):
            store.observe(
                "x", _int_vec(rng.integers(0, 1 << 40, 1000)), 1000 * i
            )
        stats = store.get("x")
        assert stats.distinct_estimate() > 1000

    def test_selectivity_eq_uniform(self):
        store = _store(sample_size=1024)
        store.observe("x", _int_vec(np.arange(1000) % 10), 0)
        sel = store.get("x").selectivity_eq(3)
        assert 0.05 < sel < 0.2  # true value 0.1

    def test_selectivity_eq_absent_value(self):
        store = _store(sample_size=1024)
        store.observe("x", _int_vec(np.arange(100)), 0)
        sel = store.get("x").selectivity_eq(10**9)
        assert 0 < sel <= 0.05

    def test_selectivity_eq_null(self):
        store = _store()
        store.observe("x", _int_vec([1, 2], [True, False]), 0)
        assert store.get("x").selectivity_eq(None) == pytest.approx(0.5)

    def test_selectivity_range(self):
        store = _store(sample_size=2048)
        store.observe("x", _int_vec(np.arange(1000)), 0)
        stats = store.get("x")
        sel = stats.selectivity_range(0, 499)
        assert 0.4 < sel < 0.6
        assert stats.selectivity_range(None, None) == pytest.approx(1.0)
        assert stats.selectivity_range(2000, None) == 0.0

    def test_selectivity_range_empty_sample(self):
        stats = AttributeStatistics("x", DataType.INTEGER, sample_size=8)
        assert 0 < stats.selectivity_range(0, 10) < 1

    def test_selectivity_like_prefix(self):
        store = _store()
        vec = ColumnVector.from_pylist(
            DataType.TEXT, ["apple", "apricot", "banana", "avocado"]
        )
        store.observe("s", vec, 0)
        sel = store.get("s").selectivity_like_prefix("ap")
        assert sel == pytest.approx(0.5)


class TestStoreManagement:
    def test_invalidate(self):
        store = _store()
        store.observe("x", _int_vec([1]), 0)
        store.set_row_estimate(10)
        store.invalidate()
        assert store.get("x") is None
        assert store.row_estimate == 0

    def test_attribute_names_and_describe(self):
        store = _store()
        store.observe("b", _int_vec([1]), 0)
        store.observe("a", _int_vec([2]), 0)
        assert store.attribute_names() == ["a", "b"]
        described = store.describe()
        assert {d["name"] for d in described} == {"a", "b"}
