"""Property-based invariants for the adaptive structures and the B+-tree."""

import numpy as np
from hypothesis import given, settings, strategies as st

from governed import governed_cache, governed_map
from repro.batch import ColumnVector
from repro.datatypes import DataType
from repro.service import MemoryGovernor
from repro.storage.btree import BPlusTree


def _vec(n):
    return ColumnVector(
        DataType.INTEGER,
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.bool_),
    )


def _offsets(rows, attrs):
    return np.arange(rows * attrs, dtype=np.int64).reshape(rows, attrs)


#: One op: a cache put ``(attr, rows, benefit)`` or a map install
#: ``(first attr, width, rows, benefit)``.
structure_ops = st.lists(
    st.one_of(
        st.tuples(
            st.integers(0, 7), st.integers(1, 200), st.floats(0, 1)
        ),
        st.tuples(
            st.integers(0, 5),  # first attr
            st.integers(1, 3),  # width
            st.integers(1, 150),  # rows
            st.floats(0, 1),
        ),
    ),
    max_size=50,
)


@given(budget=st.integers(0, 8000), ops=structure_ops)
@settings(max_examples=150, deadline=None)
def test_cache_and_map_share_one_budget(budget, ops):
    """A cache and a positional map under one governor: together they
    never hold more than its budget, whatever evicts whom."""
    governor = MemoryGovernor(budget)
    cache = governed_cache(governor)
    pm = governed_map(governor)
    for op in ops:
        cache.tick()
        pm.tick()
        if len(op) == 3:
            attr, n, benefit = op
            cache.put(attr, _vec(n), benefit_seconds=benefit)
            entry = cache.peek(attr)
            if entry is not None:
                assert entry.vector.to_pylist() == list(range(entry.rows))
        else:
            first, width, rows, benefit = op
            attrs = tuple(range(first, first + width))
            pm.install(attrs, _offsets(rows, width), benefit_seconds=benefit)
        assert cache.used_bytes + pm.used_bytes == governor.used_bytes
        assert governor.used_bytes <= budget
    # Lookup structures stay internally consistent.
    for attr in range(8):
        chunk = pm.best_cover(attr)
        if chunk is not None:
            assert attr in chunk.attrs
            assert chunk.rows >= 1


@given(
    keys=st.lists(
        st.one_of(st.integers(-100, 100), st.none()), max_size=300
    ),
    probes=st.lists(st.integers(-120, 120), max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_btree_matches_linear_scan(keys, probes):
    tree = BPlusTree.bulk_build(keys, order=8)
    tree.validate()
    for probe in probes:
        expected = sorted(
            i for i, k in enumerate(keys) if k == probe
        )
        assert tree.search_eq(probe).tolist() == expected


@given(
    keys=st.lists(st.integers(-50, 50), max_size=200),
    low=st.integers(-60, 60),
    span=st.integers(0, 40),
    li=st.booleans(),
    hi_inc=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_btree_range_matches_linear_scan(keys, low, span, li, hi_inc):
    high = low + span
    tree = BPlusTree.bulk_build(keys, order=6)
    expected = sorted(
        i
        for i, k in enumerate(keys)
        if (k > low or (k == low and li))
        and (k < high or (k == high and hi_inc))
    )
    got = tree.search_range(
        low, high, low_inclusive=li, high_inclusive=hi_inc
    ).tolist()
    assert got == expected


@given(
    initial=st.lists(st.integers(0, 60), max_size=120),
    inserts=st.lists(st.integers(0, 60), max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_btree_insert_preserves_invariants(initial, inserts):
    tree = BPlusTree.bulk_build(initial, order=5)
    for j, key in enumerate(inserts):
        tree.insert(key, len(initial) + j)
    tree.validate()
    all_keys = initial + inserts
    for probe in set(all_keys):
        expected = sorted(i for i, k in enumerate(all_keys) if k == probe)
        assert tree.search_eq(probe).tolist() == expected
