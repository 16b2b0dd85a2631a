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


#: One window of an INTEGER column's zone map: min, max, NULL count.
WINDOW_BYTES = 3 * 8


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


def held(store):
    """What the store should charge: its files and its zone maps."""
    zones = sum(c.store.zone_bytes() for c in store.entries())
    return sum(files(store).values()) + zones


def test_promote_over_a_promoted_column_stays_readable(store):
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    assert read(store, 0, "a", 0, 10) == list(range(10))
    assert store.promote(0, "a", DataType.INTEGER, ints(range(15)), 1.0)
    assert store.coverage_rows(0) == 15
    assert read(store, 0, "a", 5, 15) == list(range(5, 15))
    assert store.governed_bytes() == held(store)
    assert [p.name for p in store.root.iterdir()] == ["t-0-a"]


def test_refused_re_promote_keeps_the_old_prefix(tmp_path):
    store = make_store(tmp_path, 128 + 10 * 8 + WINDOW_BYTES)  # not 15
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
    assert store.governed_bytes() == held(store)
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
    assert store.governed_bytes() == held(store)


def test_text_tail_extends_the_file_dictionary_in_place(store):
    store.promote(2, "s", DataType.TEXT, texts(["cd", None, "ab"]), 1.0)
    sizes = files(store)
    assert store.extend(2, texts(["ab", None]))  # known strings: codes only
    assert files(store) == {
        **sizes,
        "s.values.npy": sizes["s.values.npy"] + 2 * 4,
        "s.nulls.npy": sizes["s.nulls.npy"] + 2,
    }
    sizes = files(store)
    # New strings sorting before, between and after the stored ones go
    # onto the end of the file dictionary; nothing is rewritten.
    assert store.extend(2, texts(["wider", "a", "ab", "b"]))
    assert files(store) == {
        "s.values.npy": sizes["s.values.npy"] + 4 * 4,
        "s.nulls.npy": sizes["s.nulls.npy"] + 4,
        "s.dict.npy": sizes["s.dict.npy"] + len("wider" "a" "b"),
        "s.dictends.npy": sizes["s.dictends.npy"] + 3 * 8,
    }
    metrics = QueryMetrics()
    vector = store.read(store.pin(2, 9, metrics), 0, 9, None, metrics)
    assert vector.to_pylist() == [
        "cd", None, "ab", "ab", None, "wider", "a", "ab", "b"
    ]
    assert vector.dictionary.tolist() == ["a", "ab", "b", "cd", "wider"]
    assert store.governed_bytes() == held(store)


def test_extend_refused_by_the_governor_keeps_the_prefix(tmp_path):
    # Room for one more row.
    store = make_store(tmp_path, 128 + 10 * 8 + WINDOW_BYTES + 8)
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    sizes = files(store)
    assert not store.extend(0, ints([1, 2]))
    assert files(store) == sizes and store.coverage_rows(0) == 10
    assert not store.extend(5, ints([1]))  # never promoted


def test_the_governor_lock_is_the_store_lock(tmp_path):
    column_bytes = 128 + 80 + WINDOW_BYTES  # one 10-row column
    store = make_store(tmp_path, column_bytes)
    governor = store.governor
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 0.001)
    # Another structure's grant evicts the column from under the store
    # while holding the one lock the store itself takes.
    with governor.lock:
        assert governor.grant(object(), column_bytes)
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
    store = make_store(tmp_path, 128 + 800 + 128 + 80 + 2 * WINDOW_BYTES + 8)
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
        zone_rows=None,
    )
    assert table.num_rows == 2
    asked = []
    tail = {"n": floats, "s": texts(["z", None])}
    assert not table.extend(tail, lambda nbytes: False)
    assert table.num_rows == 2
    assert table.extend(tail, lambda nbytes: asked.append(nbytes) or True)
    # Values and codes, a flags file, and "z" in the file dictionary.
    assert asked == [2 * 8 + 2 * 4 + (128 + 4) + 1 + 8]
    assert table.num_rows == 4
    assert ColumnStoreTable(tmp_path / "t", schema).num_rows == 4
    (batch,) = table.scan(["n", "s"], batch_size=10)
    assert batch.column("s").to_pylist() == ["x", "yy", "z", None]
    assert batch.column("n").to_pylist() == [1.5, 2.5, 1.5, 2.5]
    with pytest.raises(StorageError):
        table.extend({"n": floats, "s": texts(["a"])})


def test_a_promoted_column_extends_its_zone_map(tmp_path):
    store = make_store(tmp_path, 1 << 20)
    assert store.promote(0, "a", DataType.INTEGER, ints(range(100)), 0.1)
    column = store.peek(0)
    assert column.synopsis.window_rows == store.window_rows
    assert column.synopsis.maxs.tolist() == [99]
    held = column.nbytes
    assert store.extend(0, ints([500, -3]))
    assert column.synopsis.rows == 102
    assert column.synopsis.mins.tolist() == [-3]
    assert column.synopsis.maxs.tolist() == [500]
    # One window before and after: only the files grew.
    assert column.nbytes == held + 2 * 8
    assert store.used_bytes == column.store.storage_bytes() + (
        column.store.zone_bytes()
    )


def test_loads_and_tails_are_counted(store):
    counter = store.registry.counter
    assert store.promote(0, "a", DataType.INTEGER, ints(range(10)), 1.0)
    assert store.promote(1, "b", DataType.INTEGER, ints(range(10)), 1.0)
    assert store.extend(1, ints([10, 11]))
    assert counter("vp_promotions_total").value == 2
    assert counter("vp_extends_total").value == 1
    stats = store.stats(12)
    assert stats["columns"] == ["a", "b"]
    assert stats["lag_rows"] == {"a": 2, "b": 0}


def test_a_refused_load_counts_nothing(tmp_path):
    store = make_store(tmp_path, 128 + 10 * 8 + WINDOW_BYTES)  # not 15
    assert not store.promote(0, "a", DataType.INTEGER, ints(range(15)), 1.0)
    counter = store.registry.counter
    assert counter("vp_promotions_total").value == 0
    assert store.stats()["columns"] == [] and store.governed_bytes() == 0
    # Refused before a byte was written: no file, no directory.
    assert not store.root.exists()


@pytest.mark.parametrize(
    "dtype, vector",
    [
        (DataType.INTEGER, ints(range(50), nulls=[3])),
        (
            DataType.FLOAT,
            ColumnVector.from_pylist(DataType.FLOAT, [0.5, None]),
        ),
        (DataType.TEXT, texts(["b", None, "é", "b"] * 9)),
    ],
)
def test_the_charged_bytes_are_the_written_files(store, dtype, vector):
    assert store.promote(0, "a", dtype, vector, 1.0)
    assert store.governed_bytes() == held(store) > 0
