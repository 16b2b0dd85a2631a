"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.datatypes import DataType
from repro.errors import SQLSyntaxError
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
    conjoin,
    contains_aggregate,
    expr_column_refs,
    expr_to_sql,
    split_conjuncts,
)
from repro.sql.lexer import TokenKind, tokenize_sql
from repro.sql.parser import parse_select


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize_sql("SELECT foo FROM Bar")
        kinds = [t.kind for t in tokens]
        assert kinds[:4] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
        ]
        assert tokens[3].text == "bar"  # lower-cased

    def test_numbers(self):
        tokens = tokenize_sql("1 2.5 1e3")
        assert [t.text for t in tokens[:-1]] == ["1", "2.5", "1e3"]

    def test_string_escapes(self):
        tokens = tokenize_sql("'it''s'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize_sql("SELECT 'oops")

    def test_comments_skipped(self):
        tokens = tokenize_sql("SELECT 1 -- a comment\n + 2")
        texts = [t.text for t in tokens if t.kind is not TokenKind.EOF]
        assert texts == ["select", "1", "+", "2"]

    def test_multi_char_operators(self):
        tokens = tokenize_sql("a <= b <> c || d")
        ops = [t.text for t in tokens if t.kind is TokenKind.OP]
        assert ops == ["<=", "<>", "||"]

    def test_delimited_identifier_preserves_case(self):
        tokens = tokenize_sql('"MyCol"')
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "MyCol"

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError) as exc:
            tokenize_sql("SELECT a ~ b")
        assert exc.value.position == 9


class TestParserBasics:
    def test_simple_select(self):
        stmt = parse_select("SELECT a, b FROM t")
        assert len(stmt.items) == 2
        assert stmt.from_table.name == "t"
        assert isinstance(stmt.items[0].expr, ColumnRef)

    def test_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, Star)

    def test_aliases(self):
        stmt = parse_select("SELECT a AS x, b y FROM t u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_table.alias == "u"

    def test_qualified_column(self):
        stmt = parse_select("SELECT t.a FROM t")
        ref = stmt.items[0].expr
        assert ref.table == "t" and ref.name == "a"
        assert ref.key == "t.a"

    def test_no_from(self):
        stmt = parse_select("SELECT 1 + 1")
        assert stmt.from_table is None

    def test_limit_offset(self):
        stmt = parse_select("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10 and stmt.offset == 5

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM t LIMIT 2.5")

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct

    def test_trailing_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM t WHERE")
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM t extra stuff ,")

    def test_semicolon_accepted(self):
        parse_select("SELECT a FROM t;")


class TestParserExpressions:
    def _where(self, sql_pred):
        return parse_select(f"SELECT a FROM t WHERE {sql_pred}").where

    def test_precedence_and_or(self):
        expr = self._where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, BinaryOp) and expr.op == "or"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "and"

    def test_arithmetic_precedence(self):
        expr = self._where("a + b * 2 = 7")
        assert expr.op == "="
        assert expr.left.op == "+"
        assert expr.left.right.op == "*"

    def test_parentheses(self):
        expr = self._where("(a + b) * 2 = 7")
        assert expr.left.op == "*"

    def test_comparison_normalization(self):
        assert self._where("a != 1").op == "<>"

    def test_unary_minus_folds_literal(self):
        expr = self._where("a = -5")
        assert isinstance(expr.right, Literal)
        assert expr.right.value == -5

    def test_not(self):
        expr = self._where("NOT a = 1")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_between(self):
        expr = self._where("a BETWEEN 1 AND 10")
        assert isinstance(expr, Between) and not expr.negated
        expr = self._where("a NOT BETWEEN 1 AND 10")
        assert expr.negated

    def test_in_list(self):
        expr = self._where("a IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert [i.value for i in expr.items] == [1, 2, 3]
        assert self._where("a NOT IN (1)").negated

    def test_like(self):
        expr = self._where("s LIKE 'ab%'")
        assert isinstance(expr, Like) and expr.pattern == "ab%"
        assert self._where("s NOT LIKE 'x'").negated
        with pytest.raises(SQLSyntaxError):
            self._where("s LIKE 5")

    def test_is_null(self):
        assert isinstance(self._where("a IS NULL"), IsNull)
        assert self._where("a IS NOT NULL").negated

    def test_literals(self):
        stmt = parse_select(
            "SELECT 1, 2.5, 'txt', TRUE, FALSE, NULL, DATE '2012-08-27'"
        )
        values = [item.expr for item in stmt.items]
        assert values[0].dtype is DataType.INTEGER
        assert values[1].dtype is DataType.FLOAT
        assert values[2].value == "txt"
        assert values[3].value is True
        assert values[5].value is None
        assert values[6].dtype is DataType.DATE

    @pytest.mark.parametrize(
        "sql, position",
        [
            ("SELECT 1.2.3", 7),
            ("SELECT 1e", 7),
            ("SELECT a FROM t WHERE a < 1ee2", 26),
        ],
    )
    def test_malformed_number_is_a_syntax_error(self, sql, position):
        with pytest.raises(SQLSyntaxError, match="malformed number") as info:
            parse_select(sql)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "sql, position",
        [
            ("SELECT 99999999999999999999", 7),
            ("SELECT a FROM t WHERE a = 99999999999999999999", 26),
            ("SELECT 9223372036854775808", 7),
            ("SELECT -9223372036854775809", 7),
            ("SELECT a FROM t WHERE a IN (1, -  99999999999999999999)", 31),
        ],
    )
    def test_integer_out_of_int64_is_a_syntax_error(self, sql, position):
        with pytest.raises(SQLSyntaxError, match="out of range") as info:
            parse_select(sql)
        assert info.value.position == position

    def test_int64_bounds_parse_after_folding_the_minus(self):
        stmt = parse_select("SELECT -9223372036854775808, 9223372036854775807")
        assert [i.expr.value for i in stmt.items] == [-(2**63), 2**63 - 1]

    def test_where_literals_carry_their_token_index(self):
        stmt = parse_select(
            "SELECT 5, a FROM t WHERE a = 7 AND s = 'x' AND b > -2 "
            "AND s LIKE 'y%' LIMIT 3"
        )
        assert stmt.literals == (5, 7, "x", 2, "y%", 3)
        assert stmt.items[0].expr.slot is None  # select list: fixed
        (a, s, b, __) = split_conjuncts(stmt.where)
        assert a.right.slot == 1 and s.right.slot == 2
        assert b.right.value == -2 and b.right.slot is None  # folded

    def test_date_literal_requires_string(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT DATE 5")

    def test_functions(self):
        stmt = parse_select(
            "SELECT COUNT(*), SUM(a), AVG(a + b), COUNT(DISTINCT c) FROM t"
        )
        count_star = stmt.items[0].expr
        assert isinstance(count_star, FunctionCall)
        assert isinstance(count_star.args[0], Star)
        assert stmt.items[3].expr.distinct

    def test_unknown_function(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT MEDIAN(a) FROM t")

    def test_scalar_functions(self):
        stmt = parse_select("SELECT LOWER(s), LENGTH(s), ABS(a) FROM t")
        assert [i.expr.name for i in stmt.items] == ["lower", "length", "abs"]


class TestParserClauses:
    def test_joins(self):
        stmt = parse_select(
            "SELECT * FROM a JOIN b ON a.k = b.k "
            "LEFT JOIN c ON b.j = c.j INNER JOIN d ON d.x = a.x"
        )
        assert [j.kind for j in stmt.joins] == ["inner", "left", "inner"]
        assert stmt.joins[1].table.name == "c"

    def test_left_outer_join(self):
        stmt = parse_select("SELECT * FROM a LEFT OUTER JOIN b ON a.k = b.k")
        assert stmt.joins[0].kind == "left"

    def test_group_by_having(self):
        stmt = parse_select(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by(self):
        stmt = parse_select("SELECT a, b FROM t ORDER BY a DESC, b ASC, a + b")
        assert [o.ascending for o in stmt.order_by] == [False, True, True]


class TestAstUtilities:
    def test_split_and_conjoin(self):
        expr = parse_select(
            "SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3"
        ).where
        conjuncts = split_conjuncts(expr)
        assert len(conjuncts) == 3
        rebuilt = conjoin(conjuncts)
        assert expr_to_sql(rebuilt) == expr_to_sql(expr)
        assert split_conjuncts(None) == []
        assert conjoin([]) is None

    def test_expr_column_refs(self):
        expr = parse_select("SELECT a FROM t WHERE x + y > t.z").where
        names = sorted(r.name for r in expr_column_refs(expr))
        assert names == ["x", "y", "z"]

    def test_contains_aggregate(self):
        expr = parse_select("SELECT SUM(a) + 1 FROM t").items[0].expr
        assert contains_aggregate(expr)
        plain = parse_select("SELECT a + 1 FROM t").items[0].expr
        assert not contains_aggregate(plain)

    def test_expr_to_sql_roundtrip_through_parser(self):
        sources = [
            "((a + 1) > 2)",
            "(a BETWEEN 1 AND 2)",
            "(s LIKE 'x%')",
            "(a IN (1, 2))",
            "(a IS NOT NULL)",
            "(NOT (a = 1))",
            "COUNT(*)",
        ]
        for source in sources:
            stmt = parse_select(f"SELECT 1 FROM t WHERE {source}")
            rendered = expr_to_sql(stmt.where)
            stmt2 = parse_select(f"SELECT 1 FROM t WHERE {rendered}")
            assert expr_to_sql(stmt2.where) == rendered

    def test_text_literal_escaping(self):
        assert expr_to_sql(Literal("it's", DataType.TEXT)) == "'it''s'"
