"""Unit tests for vectorized expression evaluation (3-valued logic)."""

import pytest

from repro.batch import Batch, ColumnVector
from repro.datatypes import DataType, parse_date
from repro.errors import ExecutionError
from repro.executor.expressions import (
    evaluate,
    infer_type,
    normalize_expression,
    predicate_mask,
)
from repro.sql.parser import parse_select


def _batch(**cols):
    out = {}
    for name, (dtype, values) in cols.items():
        out[name] = ColumnVector.from_pylist(dtype, values)
    return Batch(out)


def _expr(sql_fragment):
    """Parse an expression via a dummy SELECT."""
    return parse_select(f"SELECT {sql_fragment}").items[0].expr


def _eval(sql_fragment, batch):
    return evaluate(_expr(sql_fragment), batch).to_pylist()


class TestLiteralsAndColumns:
    def test_column_lookup(self):
        batch = _batch(a=(DataType.INTEGER, [1, 2]))
        assert _eval("a", batch) == [1, 2]

    def test_literal_broadcast(self):
        batch = _batch(a=(DataType.INTEGER, [1, 2, 3]))
        assert _eval("7", batch) == [7, 7, 7]
        assert _eval("'x'", batch) == ["x", "x", "x"]
        assert _eval("NULL", batch) == [None, None, None]


class TestComparisons:
    def test_numeric(self):
        batch = _batch(a=(DataType.INTEGER, [1, 5, 3]))
        assert _eval("a < 3", batch) == [True, False, False]
        assert _eval("a >= 3", batch) == [False, True, True]
        assert _eval("a = 5", batch) == [False, True, False]
        assert _eval("a <> 5", batch) == [True, False, True]

    def test_null_propagation(self):
        batch = _batch(a=(DataType.INTEGER, [1, None]))
        assert _eval("a < 3", batch) == [True, None]

    def test_int_float_mixed(self):
        batch = _batch(a=(DataType.FLOAT, [1.5, 2.5]))
        assert _eval("a > 2", batch) == [False, True]

    def test_text_comparison(self):
        batch = _batch(s=(DataType.TEXT, ["apple", "pear", None]))
        assert _eval("s = 'pear'", batch) == [False, True, None]
        assert _eval("s < 'b'", batch) == [True, False, None]

    def test_text_vs_number_raises(self):
        batch = _batch(s=(DataType.TEXT, ["a"]))
        with pytest.raises(ExecutionError):
            _eval("s = 5", batch)

    def test_bool_vs_date_raises(self):
        batch = _batch(
            b=(DataType.BOOLEAN, [True]), d=(DataType.DATE, [5])
        )
        with pytest.raises(ExecutionError):
            _eval("b = d", batch)


class TestLogic:
    def test_kleene_and(self):
        batch = _batch(
            p=(DataType.BOOLEAN, [True, True, False, None, None, False]),
            q=(DataType.BOOLEAN, [True, None, None, None, False, False]),
        )
        assert _eval("p AND q", batch) == [
            True,
            None,
            False,
            None,
            False,
            False,
        ]

    def test_kleene_or(self):
        batch = _batch(
            p=(DataType.BOOLEAN, [True, False, None, None]),
            q=(DataType.BOOLEAN, [False, None, True, None]),
        )
        assert _eval("p OR q", batch) == [True, None, True, None]

    def test_not(self):
        batch = _batch(p=(DataType.BOOLEAN, [True, False, None]))
        assert _eval("NOT p", batch) == [False, True, None]

    def test_and_requires_boolean(self):
        batch = _batch(a=(DataType.INTEGER, [1]))
        with pytest.raises(ExecutionError):
            _eval("a AND a", batch)

    def test_predicate_mask_null_is_false(self):
        batch = _batch(a=(DataType.INTEGER, [1, None, 5]))
        mask = predicate_mask(_expr("a < 3"), batch)
        assert mask.tolist() == [True, False, False]

    def test_predicate_mask_requires_boolean(self):
        batch = _batch(a=(DataType.INTEGER, [1]))
        with pytest.raises(ExecutionError):
            predicate_mask(_expr("a + 1"), batch)


class TestArithmetic:
    def test_integer_ops(self):
        batch = _batch(a=(DataType.INTEGER, [7, 10]))
        assert _eval("a + 3", batch) == [10, 13]
        assert _eval("a - 3", batch) == [4, 7]
        assert _eval("a * 2", batch) == [14, 20]
        assert _eval("a % 3", batch) == [1, 1]

    def test_remainder_takes_the_dividends_sign(self):
        batch = _batch(a=(DataType.INTEGER, [-7, 7, -7]))
        assert _eval("a % 3", batch) == [-1, 1, -1]
        assert _eval("a % -3", batch) == [-1, 1, -1]

    def test_division_always_float(self):
        batch = _batch(a=(DataType.INTEGER, [7]))
        result = evaluate(_expr("a / 2"), batch)
        assert result.dtype is DataType.FLOAT
        assert result.to_pylist() == [3.5]

    def test_division_by_zero_is_null(self):
        batch = _batch(
            a=(DataType.INTEGER, [7, 8]), b=(DataType.INTEGER, [0, 2])
        )
        assert _eval("a / b", batch) == [None, 4.0]
        assert _eval("a % b", batch) == [None, 0]

    def test_null_propagation(self):
        batch = _batch(a=(DataType.INTEGER, [None, 2]))
        assert _eval("a + 1", batch) == [None, 3]

    def test_unary_minus(self):
        batch = _batch(a=(DataType.INTEGER, [3, -4]))
        assert _eval("-a", batch) == [-3, 4]

    def test_arithmetic_on_text_raises(self):
        batch = _batch(s=(DataType.TEXT, ["a"]))
        with pytest.raises(ExecutionError):
            _eval("s + 1", batch)

    def test_date_arithmetic(self):
        batch = _batch(d=(DataType.DATE, [100]))
        result = evaluate(_expr("d + 5"), batch)
        assert result.dtype is DataType.DATE
        assert result.to_pylist() == [105]

    def test_concat(self):
        batch = _batch(s=(DataType.TEXT, ["ab", None]))
        assert _eval("s || 'cd'", batch) == ["abcd", None]


class TestPredicates:
    def test_between(self):
        batch = _batch(a=(DataType.INTEGER, [1, 5, 10, None]))
        assert _eval("a BETWEEN 2 AND 9", batch) == [
            False,
            True,
            False,
            None,
        ]
        assert _eval("a NOT BETWEEN 2 AND 9", batch) == [
            True,
            False,
            True,
            None,
        ]

    def test_in_list(self):
        batch = _batch(a=(DataType.INTEGER, [1, 4, None]))
        assert _eval("a IN (1, 2)", batch) == [True, False, None]
        assert _eval("a NOT IN (1, 2)", batch) == [False, True, None]

    def test_in_list_with_null_item(self):
        batch = _batch(a=(DataType.INTEGER, [1, 4]))
        # 1 IN (1, NULL) is TRUE; 4 IN (1, NULL) is NULL.
        assert _eval("a IN (1, NULL)", batch) == [True, None]

    def test_like(self):
        batch = _batch(
            s=(DataType.TEXT, ["hello", "help", "yelp", None])
        )
        assert _eval("s LIKE 'hel%'", batch) == [True, True, False, None]
        assert _eval("s LIKE '_el_'", batch) == [False, True, True, None]
        assert _eval("s NOT LIKE 'hel%'", batch) == [
            False,
            False,
            True,
            None,
        ]

    def test_like_escapes_regex_chars(self):
        batch = _batch(s=(DataType.TEXT, ["a.b", "axb"]))
        assert _eval("s LIKE 'a.b'", batch) == [True, False]

    def test_like_requires_text(self):
        batch = _batch(a=(DataType.INTEGER, [1]))
        with pytest.raises(ExecutionError):
            _eval("a LIKE 'x'", batch)

    def test_is_null(self):
        batch = _batch(a=(DataType.INTEGER, [1, None]))
        assert _eval("a IS NULL", batch) == [False, True]
        assert _eval("a IS NOT NULL", batch) == [True, False]


class TestUntypedNull:
    """A bare ``NULL`` takes its operator's type: NULL, not an error."""

    def _batch(self):
        return _batch(
            i=(DataType.INTEGER, [1, 7, None]),
            f=(DataType.FLOAT, [0.5, 2.5, None]),
            s=(DataType.TEXT, ["a", "b", None]),
            d=(DataType.DATE, [15_000, 15_001, None]),
        )

    @pytest.mark.parametrize(
        "fragment",
        [
            "i = NULL",
            "NULL <> i",
            "f > NULL",
            "d <= NULL",
            "NULL BETWEEN i AND 5",
            "i NOT BETWEEN 0 AND NULL",
            "NULL IN (1, 2)",
            "NOT NULL",
            "NULL = NULL",
        ],
    )
    def test_comparisons_are_null(self, fragment):
        assert _eval(fragment, self._batch()) == [None, None, None]

    def test_kleene_logic_with_a_null_operand(self):
        batch = self._batch()
        assert _eval("s = 'a' OR i = NULL", batch) == [True, None, None]
        assert _eval("i > 5 AND NULL", batch) == [False, None, None]
        assert _eval("i < 5 OR NULL", batch) == [True, None, None]
        # Only a bound that is definitely violated decides a BETWEEN.
        assert _eval("i BETWEEN NULL AND 5", batch) == [None, False, None]
        assert _eval("i NOT BETWEEN 5 AND NULL", batch) == [True, None, None]

    @pytest.mark.parametrize(
        "fragment, dtype",
        [
            ("i + NULL", DataType.INTEGER),
            ("NULL * f", DataType.FLOAT),
            ("i / NULL", DataType.FLOAT),
            ("d + NULL", DataType.DATE),
            ("NULL - d", DataType.INTEGER),
            ("NULL + NULL", DataType.INTEGER),
        ],
    )
    def test_arithmetic_is_null_of_the_inferred_type(self, fragment, dtype):
        batch = self._batch()
        types = {name: v.dtype for name, v in batch.columns.items()}
        result = evaluate(_expr(fragment), batch)
        assert result.to_pylist() == [None, None, None]
        assert result.dtype is infer_type(_expr(fragment), types) is dtype

    def test_null_predicate_keeps_no_row(self):
        batch = self._batch()
        for fragment in ("NULL", "NOT NULL", "i = NULL", "NULL AND i > 0"):
            assert predicate_mask(_expr(fragment), batch).tolist() == [
                False,
                False,
                False,
            ]

    def test_text_against_a_number_still_raises(self):
        with pytest.raises(ExecutionError, match="cannot compare"):
            _eval("s = 1", self._batch())


class TestScalarFunctions:
    def test_abs(self):
        batch = _batch(a=(DataType.INTEGER, [-3, 4, None]))
        assert _eval("ABS(a)", batch) == [3, 4, None]

    def test_lower_upper_length(self):
        batch = _batch(s=(DataType.TEXT, ["AbC", None]))
        assert _eval("LOWER(s)", batch) == ["abc", None]
        assert _eval("UPPER(s)", batch) == ["ABC", None]
        assert _eval("LENGTH(s)", batch) == [3, None]

    def test_aggregate_outside_group_raises(self):
        batch = _batch(a=(DataType.INTEGER, [1]))
        with pytest.raises(ExecutionError):
            _eval("SUM(a)", batch)


class TestTypeInference:
    TYPES = {
        "a": DataType.INTEGER,
        "f": DataType.FLOAT,
        "s": DataType.TEXT,
        "d": DataType.DATE,
        "b": DataType.BOOLEAN,
    }

    @pytest.mark.parametrize(
        "fragment,expected",
        [
            ("a + 1", DataType.INTEGER),
            ("a + f", DataType.FLOAT),
            ("a / 2", DataType.FLOAT),
            ("a = 1", DataType.BOOLEAN),
            ("s || 'x'", DataType.TEXT),
            ("d - d", DataType.INTEGER),
            ("d + 1", DataType.DATE),
            ("COUNT(*)", DataType.INTEGER),
            ("SUM(a)", DataType.INTEGER),
            ("SUM(f)", DataType.FLOAT),
            ("AVG(a)", DataType.FLOAT),
            ("MIN(s)", DataType.TEXT),
            ("LENGTH(s)", DataType.INTEGER),
            ("a IS NULL", DataType.BOOLEAN),
        ],
    )
    def test_inference(self, fragment, expected):
        assert infer_type(_expr(fragment), self.TYPES) is expected

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError):
            infer_type(_expr("zz"), self.TYPES)

    def test_sum_star_raises(self):
        with pytest.raises(ExecutionError):
            infer_type(_expr("SUM(*)"), self.TYPES)


class TestNormalization:
    def test_date_literal_coercion(self):
        expr = _expr("d >= '2012-08-27'")
        normalize_expression(expr, {"d": DataType.DATE})
        assert expr.right.dtype is DataType.DATE
        assert expr.right.value == parse_date("2012-08-27")

    def test_between_coercion(self):
        expr = _expr("d BETWEEN '2012-01-01' AND '2012-12-31'")
        normalize_expression(expr, {"d": DataType.DATE})
        assert expr.low.dtype is DataType.DATE
        assert expr.high.dtype is DataType.DATE

    def test_text_column_untouched(self):
        expr = _expr("s = '2012-01-01'")
        normalize_expression(expr, {"s": DataType.TEXT})
        assert expr.right.dtype is DataType.TEXT


class TestIntegerRange:
    """INTEGER ``+ - *`` that leaves int64 raises, as PostgreSQL's
    "bigint out of range" does, instead of wrapping around."""

    MAX = 2**63 - 1

    def test_folded_constant_raises(self):
        from repro import PostgresRaw

        with PostgresRaw() as engine:
            with pytest.raises(ExecutionError, match="out of INTEGER range"):
                engine.query(f"SELECT {self.MAX} + 1")
            assert engine.query(f"SELECT {self.MAX - 1} + 1").rows == [
                (self.MAX,)
            ]

    def test_vectorized_predicate_raises(self):
        batch = _batch(a=(DataType.INTEGER, [1, 2, 3]))
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            predicate_mask(_expr(f"a * {self.MAX} > 0"), batch)

    @pytest.mark.parametrize(
        "fragment",
        [
            f"a + {2**63 - 1}",
            f"a - {2**63 - 1} - 3",
            f"-a - {2**63 - 1}",
            "a * 4611686018427387904",
            f"-a * {2**63 - 1} - 3",
        ],
    )
    def test_each_operator_raises_past_either_end(self, fragment):
        batch = _batch(a=(DataType.INTEGER, [0, 2]))
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            _eval(fragment, batch)

    def test_results_at_the_ends_of_the_range_stand(self):
        batch = _batch(a=(DataType.INTEGER, [-2, 1, None]))
        assert _eval("a * 4611686018427387904", batch) == [
            -(2**63),
            2**62,
            None,
        ]
        assert _eval(f"a + {self.MAX - 1}", batch) == [
            self.MAX - 3,
            self.MAX,
            None,
        ]
        batch = _batch(a=(DataType.INTEGER, [-1, 1, None]))
        assert _eval(f"a - {self.MAX}", batch) == [
            -(2**63),
            -self.MAX + 1,
            None,
        ]

    def test_null_rows_never_overflow(self):
        batch = _batch(a=(DataType.INTEGER, [None, 1]))
        assert _eval(f"a * {self.MAX}", batch) == [None, self.MAX]

    def test_negating_the_smallest_integer_raises(self):
        batch = _batch(a=(DataType.INTEGER, [-(2**63), None]))
        with pytest.raises(ExecutionError, match="out of INTEGER range"):
            _eval("-a", batch)
