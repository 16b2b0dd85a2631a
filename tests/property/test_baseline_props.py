"""Property-based tests for the conventional baselines' access paths.

Zone maps and index scans are *pruning* structures: whatever blocks or
rows they skip, the answers must equal a full scan's.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.batch import ColumnVector
from repro.core.synopsis import Interval, Synopsis
from repro.datatypes import DataType
from repro.storage.btree import BPlusTree
from repro.storage.columnstore import ZONE_BLOCK_ROWS


@given(
    values=st.lists(
        st.one_of(st.integers(-1000, 1000), st.none()),
        min_size=1,
        max_size=ZONE_BLOCK_ROWS * 2 + 50,
    ),
    low=st.integers(-1100, 1100),
    span=st.integers(0, 500),
    inclusive=st.tuples(st.booleans(), st.booleans()),
)
@settings(max_examples=50, deadline=None)
def test_zone_map_never_prunes_qualifying_rows(values, low, span, inclusive):
    high = low + span
    vec = ColumnVector.from_pylist(DataType.INTEGER, values)
    zones = Synopsis.of(vec, ZONE_BLOCK_ROWS)
    interval = Interval(np.int64(low), np.int64(high), *inclusive)
    possible = zones.possible([interval])
    for i, v in enumerate(values):
        if v is None or not (
            (low < v or (v == low and inclusive[0]))
            and (v < high or (v == high and inclusive[1]))
        ):
            continue
        block = i // ZONE_BLOCK_ROWS
        assert possible[block], (
            f"qualifying row {i} (value {v}) in pruned block {block}"
        )


@given(
    keys=st.lists(st.integers(0, 200), min_size=1, max_size=400),
    probes=st.lists(
        st.tuples(st.integers(0, 210), st.integers(0, 60)), max_size=10
    ),
)
@settings(max_examples=50, deadline=None)
def test_index_scan_equals_filter_semantics(keys, probes):
    """search_range(lo, hi) row sets == brute-force filter row sets,
    which is what guarantees _IndexScan(residual=None) == Filter(scan)."""
    tree = BPlusTree.bulk_build(keys, order=16)
    for low, span in probes:
        high = low + span
        expected = [i for i, k in enumerate(keys) if low <= k <= high]
        assert tree.search_range(low, high).tolist() == expected
