"""Recursive-descent parser for the supported SELECT subset.

Grammar (informally)::

    select   := SELECT [DISTINCT] item ("," item)*
                [FROM table_ref join*]
                [WHERE expr] [GROUP BY expr ("," expr)*] [HAVING expr]
                [ORDER BY expr [ASC|DESC] ("," ...)*]
                [LIMIT int [OFFSET int]]
    join     := [INNER | LEFT [OUTER]] JOIN table_ref ON expr
    expr     := or-precedence expression with NOT / comparison /
                IS [NOT] NULL / [NOT] BETWEEN / [NOT] IN / [NOT] LIKE,
                arithmetic (+ - * / % ||), unary minus, functions,
                DATE 'literal', CASE-less.
"""

from __future__ import annotations

from ..datatypes import DataType, parse_date
from ..errors import SQLSyntaxError
from .ast import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
)
from .lexer import Token, TokenKind, number_value, tokenize_sql

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        #: Token index -> its literal index ``k``, and each literal's
        #: value (a malformed number fails here, at its position).
        self._literal_index: dict[int, int] = {}
        values: list = []
        for i, token in enumerate(tokens):
            if token.kind is TokenKind.NUMBER:
                value = number_value(token.text, token.position)
            elif token.kind is TokenKind.STRING:
                value = token.text
            else:
                continue
            self._literal_index[i] = len(values)
            values.append(value)
        self._literals = tuple(values)
        #: Whether literals read now get their slot (the WHERE clause).
        self._slotted = False

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._advance()
        if not (token.kind is TokenKind.KEYWORD and token.text == word):
            raise SQLSyntaxError(
                f"expected {word.upper()}, found {token.text!r}",
                token.position,
            )

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind is TokenKind.OP and token.text == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        token = self._advance()
        if not (token.kind is TokenKind.OP and token.text == op):
            raise SQLSyntaxError(
                f"expected {op!r}, found {token.text!r}", token.position
            )

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.kind is not TokenKind.IDENT:
            raise SQLSyntaxError(
                f"expected identifier, found {token.text!r}", token.position
            )
        return token.text

    # -- statement ------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())

        stmt = SelectStatement(
            items=items, distinct=distinct, literals=self._literals
        )
        if self._accept_keyword("from"):
            stmt.from_table = self._parse_table_ref()
            while True:
                join = self._try_parse_join()
                if join is None:
                    break
                stmt.joins.append(join)
        if self._accept_keyword("where"):
            self._slotted = True
            stmt.where = self._parse_expr()
            self._slotted = False
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            stmt.group_by.append(self._parse_expr())
            while self._accept_op(","):
                stmt.group_by.append(self._parse_expr())
        if self._accept_keyword("having"):
            stmt.having = self._parse_expr()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            stmt.order_by.append(self._parse_order_item())
            while self._accept_op(","):
                stmt.order_by.append(self._parse_order_item())
        if self._accept_keyword("limit"):
            stmt.limit = self._parse_int("LIMIT")
        if self._accept_keyword("offset"):
            stmt.offset = self._parse_int("OFFSET")
        self._accept_op(";")
        tail = self._peek()
        if tail.kind is not TokenKind.EOF:
            raise SQLSyntaxError(
                f"unexpected trailing input {tail.text!r}", tail.position
            )
        return stmt

    def _parse_int(self, clause: str) -> int:
        token = self._advance()
        if token.kind is not TokenKind.NUMBER or not token.text.isdigit():
            raise SQLSyntaxError(
                f"{clause} expects an integer, found {token.text!r}",
                token.position,
            )
        return int(token.text)

    def _parse_select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(Star())
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind is TokenKind.IDENT:
            alias = self._advance().text
        return SelectItem(expr, alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind is TokenKind.IDENT:
            alias = self._advance().text
        return TableRef(name, alias)

    def _try_parse_join(self) -> JoinClause | None:
        kind = "inner"
        if self._accept_keyword("left"):
            self._accept_keyword("outer")
            kind = "left"
            self._expect_keyword("join")
        elif self._accept_keyword("inner"):
            self._expect_keyword("join")
        elif not self._accept_keyword("join"):
            return None
        table = self._parse_table_ref()
        self._expect_keyword("on")
        condition = self._parse_expr()
        return JoinClause(table, condition, kind)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, ascending)

    # -- expressions ----------------------------------------------------

    def _parse_expr(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind is TokenKind.OP and token.text in _COMPARISON_OPS:
            self._advance()
            op = "<>" if token.text == "!=" else token.text
            return BinaryOp(op, left, self._parse_additive())
        if token.is_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        negated = False
        if token.is_keyword("not"):
            nxt = self._tokens[self._pos + 1]
            if nxt.kind is TokenKind.KEYWORD and nxt.text in (
                "between",
                "in",
                "like",
            ):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if token.is_keyword("in"):
            self._advance()
            self._expect_op("(")
            items = [self._parse_additive()]
            while self._accept_op(","):
                items.append(self._parse_additive())
            self._expect_op(")")
            return InList(left, items, negated)
        if token.is_keyword("like"):
            self._advance()
            pattern = self._advance()
            if pattern.kind is not TokenKind.STRING:
                raise SQLSyntaxError(
                    "LIKE expects a string pattern", pattern.position
                )
            return Like(left, pattern.text, negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self._accept_op("+"):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self._accept_op("-"):
                left = BinaryOp("-", left, self._parse_multiplicative())
            elif self._accept_op("||"):
                left = BinaryOp("||", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            if self._accept_op("*"):
                left = BinaryOp("*", left, self._parse_unary())
            elif self._accept_op("/"):
                left = BinaryOp("/", left, self._parse_unary())
            elif self._accept_op("%"):
                left = BinaryOp("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        """A unary chain, whose INTEGER literal (after folding every
        minus into it) must fit int64."""
        start = self._peek()
        expr = self._parse_signed()
        if (
            isinstance(expr, Literal)
            and expr.dtype is DataType.INTEGER
            and not _INT64_MIN <= expr.value <= _INT64_MAX
        ):
            raise SQLSyntaxError(
                "integer literal out of range", start.position
            )
        return expr

    def _parse_signed(self) -> Expression:
        if self._accept_op("-"):
            operand = self._parse_signed()
            if isinstance(operand, Literal) and operand.dtype in (
                DataType.INTEGER,
                DataType.FLOAT,
            ):
                return Literal(-operand.value, operand.dtype)
            return UnaryOp("-", operand)
        if self._accept_op("+"):
            return self._parse_signed()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._advance()
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            k = self._literal_index[self._pos - 1]
            value = self._literals[k]
            if token.kind is TokenKind.STRING:
                dtype = DataType.TEXT
            elif isinstance(value, float):
                dtype = DataType.FLOAT
            else:
                dtype = DataType.INTEGER
            return Literal(value, dtype, k if self._slotted else None)
        if token.is_keyword("null"):
            return Literal.null()
        if token.is_keyword("true"):
            return Literal(True, DataType.BOOLEAN)
        if token.is_keyword("false"):
            return Literal(False, DataType.BOOLEAN)
        if token.is_keyword("date"):
            lit = self._advance()
            if lit.kind is not TokenKind.STRING:
                raise SQLSyntaxError(
                    "DATE expects a string literal", lit.position
                )
            return Literal(parse_date(lit.text), DataType.DATE)
        if token.kind is TokenKind.OP and token.text == "(":
            inner = self._parse_expr()
            self._expect_op(")")
            return inner
        if token.kind is TokenKind.IDENT:
            return self._parse_ident_expr(token)
        raise SQLSyntaxError(
            f"unexpected token {token.text!r}", token.position
        )

    def _parse_ident_expr(self, first: Token) -> Expression:
        # Function call?
        if self._peek().kind is TokenKind.OP and self._peek().text == "(":
            name = first.text.lower()
            if name not in AGGREGATE_FUNCTIONS | SCALAR_FUNCTIONS:
                raise SQLSyntaxError(
                    f"unknown function {name!r}", first.position
                )
            self._advance()  # consume "("
            distinct = self._accept_keyword("distinct")
            args: list[Expression] = []
            if self._accept_op("*"):
                args.append(Star())
            elif not (
                self._peek().kind is TokenKind.OP and self._peek().text == ")"
            ):
                args.append(self._parse_expr())
                while self._accept_op(","):
                    args.append(self._parse_expr())
            self._expect_op(")")
            return FunctionCall(name, args, distinct)
        # Qualified column?
        if self._accept_op("."):
            column = self._expect_ident()
            return ColumnRef(column, table=first.text)
        return ColumnRef(first.text)


def parse_select(sql: str) -> SelectStatement:
    """Parse one SELECT statement (the library's query entry point)."""
    return _Parser(tokenize_sql(sql)).parse_select()
