"""Unit tests for the raw-data cache (admitted by a memory governor)."""

import numpy as np

from governed import cache_bytes, governed_cache
from repro.batch import ColumnVector
from repro.datatypes import DataType
from repro.service import MemoryGovernor


def _vec(n, base=0):
    return ColumnVector(
        DataType.INTEGER,
        np.arange(base, base + n, dtype=np.int64),
        np.zeros(n, dtype=np.bool_),
    )


def _cache(budget=1 << 20):
    return governed_cache(MemoryGovernor(budget))


class TestPutGet:
    def test_roundtrip(self):
        cache = _cache()
        assert cache.put(3, _vec(10))
        entry = cache.get(3)
        assert entry is not None and entry.rows == 10
        assert entry.vector.to_pylist() == list(range(10))

    def test_miss(self):
        cache = _cache()
        assert cache.get(0) is None

    def test_replace_only_with_deeper_coverage(self):
        cache = _cache()
        cache.put(1, _vec(10))
        assert cache.put(1, _vec(5))  # shallower: kept as-is, still True
        assert cache.get(1).rows == 10
        assert cache.put(1, _vec(20))
        assert cache.get(1).rows == 20

    def test_utilization(self):
        cache = _cache(1000)
        assert cache.utilization() == 0.0
        cache.put(0, _vec(10))
        assert 0 < cache.utilization() <= 1.0
        assert _cache(0).utilization() == 0.0


class TestGovernedBudget:
    def test_budget_never_exceeded(self):
        per_entry = cache_bytes(_vec(100))
        cache = _cache(per_entry * 2)
        for attr in range(5):
            cache.put(attr, _vec(100))
            assert cache.used_bytes <= per_entry * 2

    def test_recency_breaks_equal_benefit(self):
        vec_bytes = cache_bytes(_vec(100))
        cache = _cache(vec_bytes * 2)
        cache.put(0, _vec(100))
        cache.put(1, _vec(100))
        cache.get(0)  # refresh 0; 1 becomes least recent
        cache.put(2, _vec(100))
        assert cache.cached_attrs() == [0, 2]
        assert cache.evictions == 1

    def test_oversized_rejected(self):
        cache = _cache(10)
        assert not cache.put(0, _vec(1000))
        assert cache.rejections == 1
        assert cache.entry_count == 0

    def test_protected_not_evicted(self):
        vec_bytes = cache_bytes(_vec(100))
        cache = _cache(vec_bytes * 2)
        cache.put(0, _vec(100))
        cache.put(1, _vec(100))
        assert not cache.put(2, _vec(100), protected={0, 1})
        assert cache.cached_attrs() == [0, 1]

    def test_refused_upgrade_keeps_old_prefix(self):
        cache = _cache(cache_bytes(_vec(10)) + 8)
        assert cache.put(0, _vec(10))
        assert not cache.put(0, _vec(20))
        assert cache.get(0).rows == 10

    def test_peek_does_not_refresh(self):
        vec_bytes = cache_bytes(_vec(100))
        cache = _cache(vec_bytes * 2)
        cache.put(0, _vec(100))
        cache.put(1, _vec(100))
        cache.peek(0)  # not a recency touch: 0 stays least recent
        cache.put(2, _vec(100))
        assert 0 not in cache.cached_attrs()


class TestExtend:
    def test_extend_appends_rows(self):
        cache = _cache()
        cache.put(0, _vec(5))
        assert cache.extend(0, _vec(3, base=5))
        entry = cache.get(0)
        assert entry.rows == 8
        assert entry.vector.to_pylist() == list(range(8))

    def test_extend_missing_entry(self):
        cache = _cache()
        assert not cache.extend(9, _vec(3))

    def test_extend_respects_budget(self):
        base = _vec(100)
        cache = _cache(cache_bytes(base) + 8)
        cache.put(0, base)
        assert not cache.extend(0, _vec(100))
        assert cache.get(0).rows == 100


class TestMaintenance:
    def test_invalidate(self):
        cache = _cache()
        cache.put(0, _vec(5))
        cache.invalidate()
        assert cache.entry_count == 0
        assert cache.coverage_rows(0) == 0

    def test_describe(self):
        cache = _cache()
        cache.put(2, _vec(4))
        info = cache.describe()
        assert info[0]["attr"] == 2 and info[0]["rows"] == 4


class TestTextCharges:
    """A TEXT entry is charged exactly what it holds: its int32 codes,
    its NULL mask, its dictionary's 8-byte slots and ``sys.getsizeof``
    of each distinct string — whatever the strings' width in memory
    (CPython stores Latin-1, BMP and astral text 1, 2 and 4 bytes per
    character)."""

    VALUES = ["ascii", "é" * 9, "日本語のテキスト", "😀" * 4]

    def test_governed_bytes_are_exact_and_released(self, tmp_path):
        import sys

        from repro import (
            Column,
            PostgresRawConfig,
            PostgresRawService,
            TableSchema,
            write_csv,
        )

        schema = TableSchema(
            [Column("id", DataType.INTEGER), Column("s", DataType.TEXT)]
        )
        texts = [self.VALUES[i % 4] if i % 5 else None for i in range(40)]
        path = tmp_path / "t.csv"
        write_csv(path, list(enumerate(texts)), schema)
        service = PostgresRawService(PostgresRawConfig(memory_budget=1 << 26))
        try:
            service.register_csv("t", path, schema)
            rows = service.session().query("SELECT s FROM t").rows
            assert [r[0] for r in rows] == texts
            cache = service.table_state("t").cache
            (entry,) = cache.entries()
            exact = 40 * 4 + 40 + 4 * 8 + sum(map(sys.getsizeof, self.VALUES))
            assert entry.nbytes == exact
            assert cache.governed_bytes() == exact
            assert cache.governed_evict(entry.attr) == exact
            assert cache.governed_bytes() == 0
            service.session().query("SELECT s FROM t")
            assert cache.governed_bytes() == exact
            service.drop_table("t")
            assert cache.governed_bytes() == 0
            assert service.governor.used_bytes == 0
        finally:
            service.close()
