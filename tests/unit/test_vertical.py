"""The columnstore tier's write side: promote, extend, re-promote.

A promoted column covers a row prefix of its table.  ``extend`` appends
the tail onto the column's files in O(tail) bytes; a second ``promote``
of the same attribute swaps freshly written files in; a column without
NULLs has no null-flags file until a tail brings one.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.batch import ColumnVector
from repro.catalog.schema import Column, TableSchema
from repro.core.metrics import QueryMetrics
from repro.datatypes import DataType
from repro.errors import StorageError
from repro.service.governor import MemoryGovernor
from repro.storage.columnstore import ColumnStoreTable
from repro.storage.vertical import VerticalStore
from repro.telemetry.registry import MetricsRegistry


def ints(values, nulls=()):
    vector = ColumnVector.from_values(
        DataType.INTEGER, np.asarray(values, dtype=np.int64)
    )
    for i in nulls:
        vector.null_mask[i] = True
    return vector


def texts(values):
    return ColumnVector.from_pylist(DataType.TEXT, values)


def make_store(tmp_path, budget=1 << 20):
    governor = MemoryGovernor(budget)
    store = VerticalStore("t", tmp_path / "vp", governor, MetricsRegistry())
    governor.register(store, "t", "columnstore")
    return store


@pytest.fixture()
def store(tmp_path):
    return make_store(tmp_path)


def read(store, attr, name, lo, hi):
    metrics = QueryMetrics()
    column = store.pin(attr, hi, metrics)
    assert column.name == name
    return store.read(column, lo, hi, None, metrics).to_pylist()


def files(store):
    return {p.name: p.stat().st_size for p in store.root.rglob("*.npy")}


def test_promote_over_a_promoted_column_stays_readable(store):
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    assert read(store, 0, "a", 0, 10) == list(range(10))
    assert store.promote(0, "a", DataType.INTEGER, ints(range(15)), 1.0)
    assert store.coverage_rows(0) == 15
    assert read(store, 0, "a", 5, 15) == list(range(5, 15))
    assert store.governed_bytes() == sum(files(store).values())
    assert [p.name for p in store.root.iterdir()] == ["t-0-a"]


def test_refused_re_promote_keeps_the_old_prefix(tmp_path):
    store = make_store(tmp_path, 128 + 10 * 8)  # 10 rows, not 15
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    assert not store.promote(0, "a", DataType.INTEGER, ints(range(15)), 1.0)
    assert store.coverage_rows(0) == 10
    assert read(store, 0, "a", 0, 10) == list(range(10))
    assert [p.name for p in store.root.iterdir()] == ["t-0-a"]


def test_extend_appends_exactly_the_tail(store):
    store.promote(0, "a", DataType.INTEGER, ints(range(1000)), 1.0)
    before = files(store)
    assert list(before) == ["a.values.npy"]  # no NULLs: no flags file
    assert read(store, 0, "a", 990, 1000) == list(range(990, 1000))
    assert store.extend(0, ints(range(1000, 1020)))
    assert files(store) == {"a.values.npy": before["a.values.npy"] + 20 * 8}
    assert store.coverage_rows(0) == 1020
    assert store.governed_bytes() == sum(files(store).values())
    # The arrays mapped before the append ended at row 1000.
    assert read(store, 0, "a", 995, 1020) == list(range(995, 1020))
    assert store.stats(1025)["lag_rows"] == {"a": 5}
    assert store.registry.counter("vp_extends_total").value == 1
    assert store.registry.counter("vp_promotions_total").value == 1


def test_extend_writes_null_flags_when_the_first_null_arrives(store):
    store.promote(0, "a", DataType.INTEGER, ints(range(100)), 1.0)
    assert store.extend(0, ints([7, 0, 9], nulls=[1]))
    assert sorted(files(store)) == ["a.nulls.npy", "a.values.npy"]
    assert read(store, 0, "a", 98, 103) == [98, 99, 7, None, 9]
    sizes = files(store)
    assert store.extend(0, ints([1, 2]))  # flags file exists: appended to
    assert files(store) == {
        "a.values.npy": sizes["a.values.npy"] + 16,
        "a.nulls.npy": sizes["a.nulls.npy"] + 2,
    }
    assert read(store, 0, "a", 100, 105) == [7, None, 9, 1, 2]
    assert store.governed_bytes() == sum(files(store).values())


def test_text_wider_than_stored_falls_back_to_promote(store):
    column = texts(["ab", None, "cd"])
    store.promote(2, "s", DataType.TEXT, column, 1.0)
    assert store.extend(2, texts(["e", None]))
    assert read(store, 2, "s", 0, 5) == ["ab", None, "cd", "e", None]
    sizes = files(store)
    assert not store.extend(2, texts(["wider"]))  # S2 cannot hold it
    assert files(store) == sizes and store.coverage_rows(2) == 5
    full = texts(["ab", None, "cd", "e", None, "wider"])
    assert store.promote(2, "s", DataType.TEXT, full, 1.0)
    assert read(store, 2, "s", 0, 6) == full.to_pylist()


def test_extend_refused_by_the_governor_keeps_the_prefix(tmp_path):
    store = make_store(tmp_path, 128 + 10 * 8 + 8)  # room for one row
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    sizes = files(store)
    assert not store.extend(0, ints([1, 2]))
    assert files(store) == sizes and store.coverage_rows(0) == 10
    assert not store.extend(5, ints([1]))  # never promoted


def test_the_governor_lock_is_the_store_lock(tmp_path):
    store = make_store(tmp_path, 128 + 80)  # room for one 10-row column
    governor = store.governor
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 0.001)
    # Another structure's grant evicts the column from under the store
    # while holding the one lock the store itself takes.
    with governor.lock:
        assert governor.grant(object(), 128 + 80)
        assert store.coverage_rows(0) == 0
    assert files(store) == {} and store.governed_bytes() == 0
    assert not store.extend(0, ints([1]))


def test_coverage_is_read_without_the_governor_lock(store):
    # A scan planning against the store must not wait on another
    # table's eviction, which holds the lock across its file deletion.
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    held, release, seen = threading.Event(), threading.Event(), []

    def hold():
        with store.governor.lock:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(10)
    reader = threading.Thread(
        target=lambda: seen.append(store.coverage_rows(0))
    )
    reader.start()
    reader.join(timeout=2)
    finished = not reader.is_alive()
    release.set()
    holder.join(timeout=10)
    reader.join(timeout=10)
    assert finished and seen == [10]


def test_extending_never_evicts_the_growing_column(tmp_path):
    store = make_store(tmp_path, 128 + 800 + 128 + 80 + 8)
    assert store.promote(0, "a", DataType.INTEGER, ints(range(100)), 0.001)
    assert store.promote(1, "b", DataType.INTEGER, ints(range(10)), 9.0)
    # Room for one more row only.  "a" saves the least per byte, but it
    # is the column growing: "b" makes the room.
    assert store.extend(0, ints([1, 2]))
    assert store.coverage_rows(0) == 102 and store.coverage_rows(1) == 0


def test_columnstore_table_extends_all_columns_or_none(tmp_path):
    schema = TableSchema(
        [Column("n", DataType.FLOAT), Column("s", DataType.TEXT)]
    )
    floats = ColumnVector.from_values(DataType.FLOAT, np.array([1.5, 2.5]))
    table = ColumnStoreTable.create(
        tmp_path / "t",
        schema,
        {"n": floats, "s": texts(["x", "yy"])},
        build_zone_maps=False,
    )
    assert table.num_rows == 2
    asked = []
    tail = {"n": floats, "s": texts(["zzz", "z"])}
    assert not table.extend(tail, asked.append)  # "zzz" is too wide
    assert asked == [] and table.num_rows == 2
    tail["s"] = texts(["z", None])
    assert not table.extend(tail, lambda nbytes: False)
    assert table.extend(tail, lambda nbytes: asked.append(nbytes) or True)
    assert asked == [2 * 8 + 2 * 2 + (128 + 4)]  # values + a flags file
    assert table.num_rows == 4
    assert ColumnStoreTable(tmp_path / "t", schema).num_rows == 4
    (batch,) = table.scan(["n", "s"], batch_size=10)
    assert batch.column("s").to_pylist() == ["x", "yy", "z", None]
    assert batch.column("n").to_pylist() == [1.5, 2.5, 1.5, 2.5]
    with pytest.raises(StorageError):
        table.extend({"n": floats, "s": texts(["a"])})


def test_a_table_with_zone_maps_refuses_to_extend(tmp_path):
    schema = TableSchema([Column("n", DataType.INTEGER)])
    table = ColumnStoreTable.create(tmp_path / "t", schema, {"n": ints([1])})
    with pytest.raises(StorageError):
        table.extend({"n": ints([2])})
