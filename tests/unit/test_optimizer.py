"""Unit tests for selectivity estimation and join ordering."""

import numpy as np
import pytest

from repro.batch import ColumnVector
from repro.core.stats import StatisticsStore
from repro.datatypes import DataType
from repro.errors import PlanningError
from repro.sql.optimizer import (
    JoinEdge,
    Optimizer,
    estimate_scan_rows,
    estimate_selectivity,
)
from repro.sql.ast import ColumnRef
from repro.sql.parser import parse_select


def _predicate(fragment):
    return parse_select(f"SELECT 1 FROM t WHERE {fragment}").where


@pytest.fixture
def uniform_stats():
    """Statistics over x ~ uniform{0..999}, s in {apple..}, 10% nulls in n."""
    store = StatisticsStore(sample_size=2048)
    rng = np.random.default_rng(0)
    store.observe(
        "x",
        ColumnVector(
            DataType.INTEGER,
            np.arange(1000, dtype=np.int64),
            np.zeros(1000, dtype=np.bool_),
        ),
        0,
    )
    store.observe(
        "s",
        ColumnVector.from_pylist(
            DataType.TEXT,
            ["apple", "apricot", "banana", "cherry"] * 100,
        ),
        0,
    )
    nulls = rng.random(1000) < 0.1
    store.observe(
        "n",
        ColumnVector(
            DataType.INTEGER,
            np.arange(1000, dtype=np.int64),
            nulls,
        ),
        0,
    )
    store.set_row_estimate(1000)
    return store


class TestSelectivity:
    def test_none_predicate_is_one(self, uniform_stats):
        assert estimate_selectivity(None, uniform_stats) == 1.0

    def test_range_estimates_track_truth(self, uniform_stats):
        sel = estimate_selectivity(_predicate("x < 500"), uniform_stats)
        assert 0.4 < sel < 0.6
        sel = estimate_selectivity(_predicate("x >= 900"), uniform_stats)
        assert 0.05 < sel < 0.2

    def test_between(self, uniform_stats):
        sel = estimate_selectivity(
            _predicate("x BETWEEN 100 AND 199"), uniform_stats
        )
        assert 0.05 < sel < 0.2

    def test_equality_uses_distinct_count(self, uniform_stats):
        sel = estimate_selectivity(_predicate("x = 5"), uniform_stats)
        assert sel < 0.05
        sel = estimate_selectivity(_predicate("s = 'apple'"), uniform_stats)
        assert 0.15 < sel < 0.4  # one of four values

    def test_conjunction_multiplies(self, uniform_stats):
        one = estimate_selectivity(_predicate("x < 500"), uniform_stats)
        both = estimate_selectivity(
            _predicate("x < 500 AND x >= 100"), uniform_stats
        )
        assert both < one

    def test_disjunction_caps_at_one(self, uniform_stats):
        sel = estimate_selectivity(
            _predicate("x < 900 OR x >= 100"), uniform_stats
        )
        assert sel <= 1.0

    def test_negation_complements(self, uniform_stats):
        pos = estimate_selectivity(_predicate("x < 300"), uniform_stats)
        neg = estimate_selectivity(_predicate("NOT x < 300"), uniform_stats)
        assert neg == pytest.approx(1.0 - pos, abs=0.05)

    def test_is_null_uses_null_fraction(self, uniform_stats):
        sel = estimate_selectivity(_predicate("n IS NULL"), uniform_stats)
        assert 0.05 < sel < 0.15
        sel = estimate_selectivity(_predicate("n IS NOT NULL"), uniform_stats)
        assert 0.85 < sel < 0.95

    def test_like_prefix(self, uniform_stats):
        sel = estimate_selectivity(
            _predicate("s LIKE 'ap%'"), uniform_stats
        )
        assert 0.3 < sel < 0.7  # apple + apricot = half

    def test_in_list_sums(self, uniform_stats):
        single = estimate_selectivity(_predicate("x IN (1)"), uniform_stats)
        triple = estimate_selectivity(
            _predicate("x IN (1, 2, 3)"), uniform_stats
        )
        assert triple >= single

    def test_defaults_without_statistics(self):
        sel = estimate_selectivity(_predicate("x = 5"), None)
        assert 0 < sel < 0.05
        sel = estimate_selectivity(_predicate("x < 5"), None)
        assert sel == pytest.approx(1 / 3, abs=0.01)

    def test_never_zero_never_above_one(self, uniform_stats):
        sel = estimate_selectivity(
            _predicate("x = 12345678"), uniform_stats
        )
        assert 0 < sel <= 1.0


class TestScanRows:
    def test_uses_row_estimate(self, uniform_stats):
        rows = estimate_scan_rows(uniform_stats, None)
        assert rows == 1000
        rows = estimate_scan_rows(uniform_stats, _predicate("x < 100"))
        assert 30 < rows < 200

    def test_default_without_stats(self):
        assert estimate_scan_rows(None, None) == 100_000


class TestJoinOrdering:
    def _edges(self, *pairs):
        return [
            JoinEdge(a, ColumnRef("k", a), b, ColumnRef("k", b))
            for a, b in pairs
        ]

    def test_starts_from_smallest(self):
        order = Optimizer().order_joins(
            ["big", "small", "mid"],
            {"big": 10_000, "small": 10, "mid": 500},
            self._edges(("big", "small"), ("big", "mid")),
        )
        assert order[0] == "small"

    def test_respects_connectivity(self):
        # tiny is smallest overall but only reachable through mid.
        order = Optimizer().order_joins(
            ["a", "mid", "tiny"],
            {"a": 50, "mid": 500, "tiny": 5},
            self._edges(("a", "mid"), ("mid", "tiny")),
        )
        assert order == ["tiny", "mid", "a"]

    def test_disconnected_raises(self):
        with pytest.raises(PlanningError, match="cross join"):
            Optimizer().order_joins(
                ["a", "b"], {"a": 1, "b": 2}, []
            )

    def test_single_table(self):
        assert Optimizer().order_joins(["only"], {"only": 5}, []) == ["only"]

    def test_deterministic_tiebreak(self):
        order1 = Optimizer().order_joins(
            ["b", "a"], {"a": 100, "b": 100}, self._edges(("a", "b"))
        )
        order2 = Optimizer().order_joins(
            ["a", "b"], {"a": 100, "b": 100}, self._edges(("b", "a"))
        )
        assert order1 == order2 == ["a", "b"]
