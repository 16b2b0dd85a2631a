"""Unit tests for planner internals: expression rewriting, pushdown
classification and projection pruning (observed through EXPLAIN)."""

import pytest

from repro import (
    Column,
    DataType,
    PostgresRaw,
    TableSchema,
    write_csv,
)
from repro.sql.ast import (
    ColumnRef,
    Literal,
    expr_to_sql,
)
from repro.sql import planner as planner_mod
from repro.sql.parser import parse_select
from repro.sql.planner import transform_expr


class TestTransformExpr:
    def _expr(self, fragment):
        return parse_select(f"SELECT {fragment}").items[0].expr

    def test_identity_clones(self):
        original = self._expr("a + b * 2")
        clone = transform_expr(original, lambda node: None)
        assert clone is not original
        assert expr_to_sql(clone) == expr_to_sql(original)

    def test_replacement_by_signature(self):
        original = self._expr("a + b")

        def replace(node):
            if isinstance(node, ColumnRef) and node.name == "a":
                return Literal(42, DataType.INTEGER)
            return None

        rewritten = transform_expr(original, replace)
        assert expr_to_sql(rewritten) == "(42 + b)"
        # Original untouched.
        assert expr_to_sql(original) == "(a + b)"

    def test_nested_structures(self):
        original = self._expr("a BETWEEN 1 AND 2 AND s LIKE 'x%' AND b IN (1)")
        rewritten = transform_expr(
            original,
            lambda node: ColumnRef("z")
            if isinstance(node, ColumnRef) and node.name == "a"
            else None,
        )
        assert "z BETWEEN" in expr_to_sql(rewritten).replace("(", "")


@pytest.fixture
def two_tables(tmp_path):
    eng = PostgresRaw()
    left = TableSchema(
        [
            Column("id", DataType.INTEGER),
            Column("x", DataType.INTEGER),
            Column("pad", DataType.TEXT),
        ]
    )
    write_csv(tmp_path / "l.csv", [(1, 10, "a"), (2, 20, "b")], left)
    eng.register_csv("l", tmp_path / "l.csv", left)
    right = TableSchema(
        [Column("id", DataType.INTEGER), Column("y", DataType.INTEGER)]
    )
    write_csv(tmp_path / "r.csv", [(1, 100), (3, 300)], right)
    eng.register_csv("r", tmp_path / "r.csv", right)
    return eng


class TestPushdownClassification:
    def test_single_table_conjuncts_pushed(self, two_tables):
        plan = two_tables.explain(
            "SELECT l.x FROM l JOIN r ON l.id = r.id "
            "WHERE l.x > 5 AND r.y < 500"
        )
        scans = [line for line in plan.splitlines() if "RawScan" in line]
        assert any("x > 5" in s for s in scans)
        assert any("y < 500" in s for s in scans)
        assert "Filter" not in plan.replace("filter:", "")

    def test_non_equi_cross_table_is_residual(self, two_tables):
        plan = two_tables.explain(
            "SELECT l.x FROM l JOIN r ON l.id = r.id WHERE l.x < r.y"
        )
        assert "Filter" in plan
        result = two_tables.query(
            "SELECT l.x FROM l JOIN r ON l.id = r.id WHERE l.x < r.y"
        )
        assert result.column("x") == [10]

    def test_constant_conjunct_is_residual(self, two_tables):
        result = two_tables.query("SELECT x FROM l WHERE 1 = 1 ORDER BY x")
        assert result.column("x") == [10, 20]
        result = two_tables.query("SELECT x FROM l WHERE 1 = 2")
        assert len(result) == 0

    def test_or_predicate_not_split(self, two_tables):
        plan = two_tables.explain(
            "SELECT l.x FROM l JOIN r ON l.id = r.id "
            "WHERE l.x > 5 OR l.x < 0"
        )
        # The OR stays one pushed conjunct on l's scan.
        scans = [line for line in plan.splitlines() if "RawScan(l" in line]
        assert "OR" in scans[0]


class TestCardinalityEstimates:
    @pytest.fixture
    def estimates(self, monkeypatch):
        """Every scan estimate the planner asks for."""
        calls = []
        estimate = planner_mod.estimate_scan_rows

        def spy(stats, predicate):
            calls.append(predicate)
            return estimate(stats, predicate)

        monkeypatch.setattr(planner_mod, "estimate_scan_rows", spy)
        return calls

    def test_single_table_plan_estimates_nothing(self, two_tables, estimates):
        two_tables.query("SELECT x FROM l")  # statistics exist from here
        for sql in (
            "SELECT x FROM l WHERE id = 1",
            "SELECT COUNT(*), SUM(x) FROM l WHERE x > 5 AND id < 9",
            "SELECT pad, COUNT(*) FROM l WHERE x IN (1, 20) GROUP BY pad",
        ):
            two_tables.query(sql)
        assert estimates == []

    def test_join_estimates_every_input(self, two_tables, estimates):
        two_tables.query("SELECT l.x FROM l JOIN r ON l.id = r.id")
        assert len(estimates) == 2


class TestProjectionPruning:
    def test_untouched_columns_not_scanned(self, two_tables):
        plan = two_tables.explain("SELECT x FROM l WHERE id = 1")
        scan = [l for l in plan.splitlines() if "RawScan" in l][0]
        assert "pad" not in scan  # TEXT column never requested

    def test_count_star_scans_zero_columns(self, two_tables):
        plan = two_tables.explain("SELECT COUNT(*) FROM l")
        scan = [l for l in plan.splitlines() if "RawScan" in l][0]
        assert "RawScan(l -> )" in scan

    def test_join_keys_included(self, two_tables):
        plan = two_tables.explain(
            "SELECT l.pad FROM l JOIN r ON l.id = r.id"
        )
        l_scan = [l for l in plan.splitlines() if "RawScan(l" in l][0]
        assert "id" in l_scan and "pad" in l_scan
        assert " x" not in l_scan


class TestOutputNaming:
    def test_duplicate_output_names_deduplicated(self, two_tables):
        result = two_tables.query("SELECT x, x FROM l ORDER BY 1")
        assert result.column_names == ["x", "x_2"]

    def test_expression_output_name(self, two_tables):
        result = two_tables.query("SELECT x + 1 FROM l ORDER BY 1")
        # Derived from the resolved expression text.
        assert "x + 1" in result.column_names[0]

    def test_qualified_star_duplicates(self, two_tables):
        result = two_tables.query(
            "SELECT * FROM l JOIN r ON l.id = r.id"
        )
        assert "l.id" in result.column_names
        assert "r.id" in result.column_names
        assert "x" in result.column_names  # unique plain names stay plain
