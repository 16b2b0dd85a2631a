"""Unit tests for the adaptive positional map (admitted by a governor)."""

import numpy as np
import pytest

from governed import governed_map
from repro.core.positional_map import PositionalChunk
from repro.errors import ReproError
from repro.service import MemoryGovernor


def _offsets(rows, attrs, base=0):
    """Deterministic fake offsets matrix."""
    return (
        np.arange(rows * attrs, dtype=np.int64).reshape(rows, attrs) + base
    )


def _map(budget=1 << 20):
    return governed_map(MemoryGovernor(budget))


class TestPositionalChunk:
    def test_requires_sorted_attrs(self):
        with pytest.raises(ReproError):
            PositionalChunk((2, 1), _offsets(3, 2))

    def test_shape_must_match(self):
        with pytest.raises(ReproError):
            PositionalChunk((0, 1, 2), _offsets(3, 2))

    def test_column_of(self):
        chunk = PositionalChunk((1, 3, 5), _offsets(2, 3))
        assert chunk.column_of(3) == 1
        with pytest.raises(ReproError):
            chunk.column_of(2)

    def test_rows_and_bytes(self):
        chunk = PositionalChunk((0, 1), _offsets(10, 2))
        assert chunk.rows == 10
        assert chunk.nbytes == 10 * 2 * 8

    def test_starts_for(self):
        chunk = PositionalChunk((0, 2), _offsets(4, 2))
        assert chunk.starts_for(2, 1, 3).tolist() == [3, 5]


class TestInstallAndLookup:
    def test_install_and_find_exact(self):
        pm = _map()
        chunk = pm.install((0, 1), _offsets(5, 2))
        assert chunk is not None
        assert pm.find_exact((0, 1)) is chunk
        assert pm.find_exact((0, 2)) is None

    def test_best_cover_prefers_deeper(self):
        pm = _map()
        pm.install((0, 1), _offsets(5, 2))
        deep = pm.install((1, 2), _offsets(10, 2))
        assert pm.best_cover(1) is deep
        assert pm.coverage_rows(1) == 10
        assert pm.coverage_rows(7) == 0

    def test_superset_chunk_subsumes_install(self):
        pm = _map()
        big = pm.install((0, 1, 2), _offsets(10, 3))
        again = pm.install((1, 2), _offsets(10, 2))
        assert again is big  # redundant combination not duplicated
        assert pm.chunk_count == 1

    def test_install_drops_subsumed_chunks(self):
        pm = _map()
        pm.install((1,), _offsets(5, 1))
        pm.install((0, 1, 2), _offsets(5, 3))
        assert pm.chunk_count == 1

    def test_upgrade_replaces_shallower_exact(self):
        pm = _map()
        pm.install((0, 1), _offsets(5, 2))
        upgraded = pm.install((0, 1), _offsets(9, 2))
        assert upgraded.rows == 9
        assert pm.chunk_count == 1

    def test_install_shallower_exact_is_noop(self):
        pm = _map()
        deep = pm.install((0, 1), _offsets(9, 2))
        result = pm.install((0, 1), _offsets(3, 2))
        assert result is deep
        assert pm.find_exact((0, 1)).rows == 9


class TestAnchors:
    def test_best_anchor_below(self):
        pm = _map()
        pm.install((0, 2), _offsets(10, 2))
        hit = pm.best_anchor(5, min_rows=10)
        assert hit is not None
        assert hit.attr == 2
        assert hit.column == 1

    def test_anchor_requires_coverage(self):
        pm = _map()
        pm.install((0, 2), _offsets(5, 2))
        assert pm.best_anchor(5, min_rows=10) is None

    def test_anchor_exact_attribute(self):
        pm = _map()
        pm.install((3,), _offsets(10, 1))
        hit = pm.best_anchor(3, min_rows=10)
        assert hit.attr == 3

    def test_no_anchor_above(self):
        pm = _map()
        pm.install((5,), _offsets(10, 1))
        assert pm.best_anchor(3, min_rows=10) is None


class TestGovernedBudget:
    def test_budget_never_exceeded(self):
        budget = 4 * 10 * 8  # room for ~2 single-attr 10-row chunks...
        pm = _map(budget)
        for attr in range(6):
            pm.install((attr,), _offsets(10, 1))
            assert pm.used_bytes <= budget

    def test_recency_breaks_equal_benefit(self):
        pm = _map(2 * 10 * 8)
        pm.tick()
        a = pm.install((0,), _offsets(10, 1))
        pm.tick()
        pm.install((1,), _offsets(10, 1))
        pm.tick()
        pm.touch(a)  # refresh a; (1,) is now least recent
        pm.install((2,), _offsets(10, 1))
        attrs = {c.attrs for c in pm.chunks()}
        assert (0,) in attrs and (2,) in attrs and (1,) not in attrs
        assert pm.evictions == 1

    def test_oversized_install_rejected(self):
        pm = _map(8)
        assert pm.install((0,), _offsets(10, 1)) is None
        assert pm.rejected_installs == 1

    def test_refused_upgrade_keeps_shallower_chunk(self):
        # Room for the 10-row chunk, not for its 20-row upgrade.
        pm = _map(_offsets(10, 2).nbytes + 8)
        shallow = pm.install((0, 1), _offsets(10, 2))
        assert shallow is not None
        assert pm.install((0, 1), _offsets(20, 2)) is None
        assert pm.rejected_installs == 1
        assert pm.find_exact((0, 1)) is shallow
        assert pm.coverage_rows(0) == pm.coverage_rows(1) == 10
        assert pm.governor.used_bytes == shallow.nbytes

    def test_protected_chunks_survive(self):
        pm = _map(2 * 10 * 8)
        a = pm.install((0,), _offsets(10, 1))
        b = pm.install((1,), _offsets(10, 1))
        result = pm.install((2,), _offsets(10, 1), protected={id(a), id(b)})
        assert result is None  # nothing evictable
        assert pm.find_exact((0,)) is a and pm.find_exact((1,)) is b

    def test_extend(self):
        pm = _map()
        chunk = pm.install((0, 1), _offsets(5, 2))
        assert pm.extend(chunk, _offsets(3, 2, base=100))
        assert chunk.rows == 8

    def test_extend_width_mismatch(self):
        pm = _map()
        chunk = pm.install((0, 1), _offsets(5, 2))
        with pytest.raises(ReproError):
            pm.extend(chunk, _offsets(3, 3))

    def test_extend_budget_refused(self):
        pm = _map(5 * 2 * 8)
        chunk = pm.install((0, 1), _offsets(5, 2))
        assert not pm.extend(chunk, _offsets(5, 2))
        assert chunk.rows == 5


class TestLineBoundsAndMaintenance:
    def test_line_bounds(self):
        pm = _map()
        assert pm.line_bounds is None and pm.n_rows == 0
        pm.set_line_bounds(np.array([0, 5, 10]))
        assert pm.n_rows == 2
        assert pm.line_index_bytes == 3 * 8

    def test_invalidate(self):
        pm = _map()
        pm.set_line_bounds(np.array([0, 5]))
        pm.install((0,), _offsets(1, 1))
        pm.invalidate()
        assert pm.chunk_count == 0
        assert pm.line_bounds is None

    def test_coverage_fraction(self):
        pm = _map()
        assert pm.coverage_fraction(4, 10) == 0.0
        pm.install((0, 1), _offsets(10, 2))
        assert pm.coverage_fraction(4, 10) == pytest.approx(0.5)
        assert pm.coverage_fraction(0, 0) == 0.0

    def test_describe(self):
        pm = _map()
        pm.install((1, 2), _offsets(4, 2))
        info = pm.describe()
        assert info[0]["attrs"] == (1, 2)
        assert info[0]["rows"] == 4
