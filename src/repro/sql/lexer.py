"""SQL tokenizer, and the literal lift the plan cache keys statements by."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from ..errors import SQLSyntaxError

KEYWORDS = frozenset(
    {
        "select",
        "distinct",
        "from",
        "where",
        "group",
        "by",
        "having",
        "order",
        "limit",
        "offset",
        "join",
        "inner",
        "left",
        "outer",
        "on",
        "as",
        "and",
        "or",
        "not",
        "in",
        "is",
        "null",
        "like",
        "between",
        "asc",
        "desc",
        "true",
        "false",
        "date",
        "case",
        "when",
        "then",
        "else",
        "end",
    }
)

_MULTI_CHAR_OPS = ("<=", ">=", "<>", "!=", "||")
_SINGLE_CHAR_OPS = "=<>+-*/%(),.;"


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}@{self.position})"


def tokenize_sql(sql: str) -> list[Token]:
    """Tokenize SQL text, lower-casing keywords and identifiers.

    Raises :class:`SQLSyntaxError` with the offending position on any
    unrecognized character or unterminated string.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline == -1 else newline + 1
            continue
        if ch == "'":
            text, i = _scan_string(sql, i)
            tokens.append(Token(TokenKind.STRING, text, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (sql[i].isdigit() or sql[i] in ".eE"):
                if sql[i] in "eE" and i + 1 < n and sql[i + 1] in "+-":
                    i += 1
                i += 1
            tokens.append(Token(TokenKind.NUMBER, sql[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i].lower()
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, start))
            continue
        if ch == '"':
            # Delimited identifier: preserves case.
            end = sql.find('"', i + 1)
            if end == -1:
                raise SQLSyntaxError("unterminated quoted identifier", i)
            tokens.append(Token(TokenKind.IDENT, sql[i + 1 : end], i))
            i = end + 1
            continue
        two = sql[i : i + 2]
        if two in _MULTI_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, i))
            i += 2
            continue
        if ch in _SINGLE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens


def _scan_string(sql: str, start: int) -> tuple[str, int]:
    """Scan a single-quoted string with doubled-quote escapes."""
    pieces: list[str] = []
    i = start + 1
    n = len(sql)
    while True:
        end = sql.find("'", i)
        if end == -1:
            raise SQLSyntaxError("unterminated string literal", start)
        if end + 1 < n and sql[end + 1] == "'":
            pieces.append(sql[i : end + 1])
            i = end + 2
            continue
        pieces.append(sql[i:end])
        return "".join(pieces), end + 1


def number_value(text: str, position: int = -1) -> int | float:
    """The value of a NUMBER token: FLOAT when it has a dot or an
    exponent, else INTEGER (any size: the parser judges the range after
    folding a unary minus)."""
    try:
        if any(c in text for c in ".eE"):
            return float(text)
        return int(text)
    except ValueError:
        raise SQLSyntaxError(f"malformed number {text!r}", position) from None


#: What stands for each lifted literal in a shape, by its value's type.
#: NUL never appears in a statement :func:`lift_literals` lifts.
SHAPE_MARKS = {int: "\x00i", float: "\x00f", str: "\x00s"}

#: One left-to-right pass that finds every literal where
#: :func:`tokenize_sql` does: a ``--`` comment and a ``"quoted
#: identifier"`` are kept whole, a string may double its quote, and a
#: number is a digit (or a dot before one) running on over digits, dots
#: and exponents — but a digit right after a letter, digit or ``_`` is
#: inside an identifier (``a7``).  An unterminated string and a NUL make
#: the statement unliftable.
_LIFT = re.compile(
    r"""
    (?P<kept> --[^\n]* | "[^"]*" )
  | (?P<string> '(?:[^']|'')*' )
  | (?P<number> (?:(?<!\w)\d|\.\d)(?:[\d.]|[eE][+-]?)* )
  | (?P<bad> ['\x00] )
    """,
    re.VERBOSE,
)

#: Text without a digit, a quote or a NUL holds no literal.
_NO_LITERAL = re.compile(r"[^\d'\x00]*")

_INT64_MAX = 2**63 - 1


def lift_literals(sql: str) -> tuple[str, tuple] | None:
    """``(shape, values)``: ``sql`` with each numeric or single-quoted
    string literal replaced by its :data:`SHAPE_MARKS` mark, and the
    literals' values in order (as the parser reads them: ``int``,
    ``float`` or ``str``).  Statements that differ only in their
    literals share a shape.

    ``None`` when the text cannot be lifted: an unterminated string, a
    malformed number, an integer outside int64, or a NUL.  Such a
    statement is parsed every time (and its error raised there).
    """
    if _NO_LITERAL.fullmatch(sql):
        return sql, ()
    values: list = []

    def lift(match: re.Match) -> str:
        kind = match.lastgroup
        text = match.group()
        if kind == "kept":
            return text
        if kind == "string":
            value: object = text[1:-1].replace("''", "'")
        elif kind == "number":
            value = number_value(text)
            if isinstance(value, int) and value > _INT64_MAX:
                raise SQLSyntaxError("integer literal out of range")
        else:
            raise SQLSyntaxError("unliftable text")
        values.append(value)
        return SHAPE_MARKS[type(value)]

    try:
        shape = _LIFT.sub(lift, sql)
    except SQLSyntaxError:
        return None
    return shape, tuple(values)
