"""The JSON-lines adapter: one JSON object per newline-delimited record.

JSONL records are newline-aligned, so the whole adaptive stack
generalizes: the CSV line index *is* the JSONL record index, and
streaming/wire serving are format-blind.  What differs is the
positional-map flavor — for each record the map stores the
**value-start offset of every schema key** (wherever that key happens
to appear in the record), so a warm scan jumps straight to
``"price": <here>`` and parses just that value.

Format geometry (see :class:`repro.formats.base.FormatAdapter`):

* keys arrive in arbitrary per-record order, so tokenizing always scans
  the full record (``selective_tokenizing = False``) and never anchors
  mid-record (``supports_anchors = False``) — but it learns *all*
  attributes in one pass, so one cold query, with or without a
  ``WHERE`` clause, warms the map for every later projection;
* value offsets of adjacent schema attributes are not adjacent in the
  record (``contiguous_fields = False``): the warm jump re-scans each
  value to its top-level ``,`` / ``}`` terminator (quote- and
  escape-aware for strings);
* a vectorized kernel (``kernel_eligible`` is always ``True``):
  :mod:`repro.kernels.jsonl` structurally indexes a whole window of
  records at once and ends map-jumped values without Python per row.
  The scalar :func:`parse_record` / :func:`value_end` here read the
  windows it leaves — escapes, nested values, keys missing, extra or
  out of order, malformed records — and raise this module's errors.

Value mapping: JSON ``null`` becomes the engine NULL (surfaced as the
:data:`JSONL_NULL` sentinel token so the shared scalar convert path,
:meth:`repro.batch.ColumnVector.from_fields`, applies); ``true``/``false``
parse via the BOOLEAN converter; numbers and strings parse by the
declared column type.  Nested objects/arrays are rejected — this engine
models flat relational rows, like its CSV side.  A record missing a
schema key is malformed (use an explicit JSON ``null`` for NULL);
unknown keys are ignored and duplicate keys last-win.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from ..errors import RawDataError
from ..rawio import tokenizer
from ..rawio.dialect import CsvDialect
from ..rawio.tokenizer import TokenizedRows
from .base import FormatAdapter, register_adapter

#: NULL sentinel token for JSONL fields.  JSON has a real ``null``
#: literal, but the shared convert path recognizes NULLs by comparing
#: field text against ``dialect.null_token`` — so JSONL nulls surface as
#: this unprintable sentinel, which cannot collide with data short of a
#: string escaping a literal NUL character.
JSONL_NULL = "\x00"

#: The pseudo-dialect JSONL tables register with: no header line, and
#: the NULL sentinel above.  The delimiter is irrelevant (record syntax
#: is JSON), but the field keeps every dialect-shaped call site working.
JSONL_DIALECT = CsvDialect(
    delimiter=",", quote_char=None, null_token=JSONL_NULL, has_header=False
)

_WS = b" \t"
_QUOTE = 0x22
_BACKSLASH = 0x5C
#: What ends a number / ``true`` / ``false`` / ``null`` literal.
_LITERAL_END = re.compile(rb"[,} \t]")

# The scanners below work on positions relative to ``data``; ``base``
# (the file offset of ``data[0]``) only turns them into file offsets
# for results and error messages.


def _skip_ws(data: bytes, pos: int, limit: int) -> int:
    while pos < limit and data[pos] in _WS:
        pos += 1
    return pos


def _string_end(data: bytes, start: int, limit: int, base: int) -> int:
    """One past the closing quote of the JSON string opening at
    ``start`` (escaped quotes are honored)."""
    pos = start + 1
    while True:
        q = data.find(b'"', pos, limit)
        if q == -1:
            raise RawDataError(
                f"unterminated JSON string at offset {start + base}",
                offset=start + base,
            )
        backslashes = 0
        b = q - 1
        while b > start and data[b] == _BACKSLASH:
            backslashes += 1
            b -= 1
        if backslashes % 2 == 0:
            return q + 1
        pos = q + 1  # escaped quote, keep scanning


def value_end(data: bytes, pos: int, line_end: int, base: int = 0) -> int:
    """One past the JSON value token starting at ``pos`` (both relative
    to ``data``) — the tokenizer's value scanner and, followed by
    :func:`token_text`, the positional-map jump."""
    if pos >= line_end:
        raise RawDataError(
            f"missing JSON value at offset {pos + base}", offset=pos + base
        )
    c = data[pos]
    if c == _QUOTE:
        return _string_end(data, pos, line_end, base)
    if c in b"{[":
        raise RawDataError(
            f"nested JSON containers are not supported (offset "
            f"{pos + base}): JSONL tables hold flat rows",
            offset=pos + base,
        )
    closer = _LITERAL_END.search(data, pos, line_end)
    end = closer.start() if closer else line_end
    if end == pos:
        raise RawDataError(
            f"malformed JSON value at offset {pos + base}", offset=pos + base
        )
    return end


def token_text(raw: bytes, offset: int, null_token: str = JSONL_NULL) -> str:
    """One JSON value token in the engine's raw-text form.

    That is the form :meth:`repro.batch.ColumnVector.from_fields` parses:
    decoded string contents (:func:`json.loads` only when an escape is
    present), the number/boolean literal verbatim, or ``null_token``
    for JSON ``null``.  ``offset`` is the token's file offset.
    """
    try:
        if raw.startswith(b'"'):
            if b"\\" in raw:
                return json.loads(raw)
            return raw[1:-1].decode()
        if raw == b"null":
            return null_token
        return raw.decode()
    except ValueError:  # bad escape, or (UnicodeDecodeError) bad bytes
        raise RawDataError(
            f"JSON value at byte offset {offset} is malformed or not "
            f"valid UTF-8: {raw!r}",
            offset=offset,
        ) from None


def parse_record(
    data: bytes,
    pos: int,
    line_end: int,
    key_to_attr: dict[bytes, int],
    row: int = 0,
    base: int = 0,
) -> tuple[list[int], list[bytes]]:
    """Scan one record; return per-attribute value starts and tokens.

    ``pos`` / ``line_end`` and the returned starts are file offsets;
    the tokens are the raw bytes of each value (:func:`token_text`
    turns one into text).  Unknown keys are skipped, duplicates
    last-win, and a missing schema key raises :class:`RawDataError`
    (JSON ``null`` expresses NULL).
    """
    n_attrs = len(key_to_attr)
    starts = [0] * n_attrs
    tokens: list[bytes | None] = [None] * n_attrs
    line_end -= base
    pos = _skip_ws(data, pos - base, line_end)
    if pos >= line_end or data[pos] != 0x7B:  # {
        raise RawDataError(
            f"row {row}: expected a JSON object record", row=row
        )
    pos = _skip_ws(data, pos + 1, line_end)
    first = True
    while True:
        if pos >= line_end:
            raise RawDataError(
                f"row {row}: unterminated JSON object record", row=row
            )
        if data[pos] == 0x7D:  # }
            pos += 1
            break
        if not first:
            if data[pos] != 0x2C:  # ,
                raise RawDataError(
                    f"row {row}: expected ',' or '}}' at offset "
                    f"{pos + base}",
                    row=row,
                )
            pos = _skip_ws(data, pos + 1, line_end)
        first = False
        if pos >= line_end or data[pos] != _QUOTE:
            raise RawDataError(
                f"row {row}: expected a quoted key at offset {pos + base}",
                row=row,
            )
        key_end = _string_end(data, pos, line_end, base)
        key = data[pos + 1 : key_end - 1]
        if b"\\" in key:
            key = token_text(data[pos:key_end], pos + base).encode("utf-8")
        pos = _skip_ws(data, key_end, line_end)
        if pos >= line_end or data[pos] != 0x3A:  # :
            raise RawDataError(
                f"row {row}: expected ':' after key {key!r}", row=row
            )
        pos = _skip_ws(data, pos + 1, line_end)
        value_start = pos
        pos = value_end(data, pos, line_end, base)
        attr = key_to_attr.get(key)
        if attr is not None:
            starts[attr] = value_start + base
            tokens[attr] = data[value_start:pos]
        pos = _skip_ws(data, pos, line_end)
    if _skip_ws(data, pos, line_end) < line_end:
        raise RawDataError(
            f"row {row}: trailing content after the JSON record", row=row
        )
    for attr, token in enumerate(tokens):
        if token is None:
            name = next(k for k, a in key_to_attr.items() if a == attr)
            raise RawDataError(
                f"row {row}: record is missing key "
                f"{name.decode('utf-8')!r} (use JSON null for NULL)",
                row=row,
            )
    return starts, tokens  # type: ignore[return-value]


@dataclass
class JsonRows(TokenizedRows):
    """Full-width tokenized records: ``fields`` hold each value's raw
    JSON token, turned into text only for the attributes asked for."""

    null_token: str = JSONL_NULL

    def texts_of(self, attr: int, rows: list[int] | None = None) -> list[str]:
        fields, null_token = self.fields, self.null_token
        starts = self.offsets[:, attr].tolist()
        picked = range(len(fields)) if rows is None else rows
        return [
            token_text(fields[r][attr], starts[r], null_token)
            for r in picked
        ]


class JsonLinesAdapter(FormatAdapter):
    """One JSON object per line, flat values only."""

    name = "jsonl"
    contiguous_fields = False
    supports_anchors = False
    selective_tokenizing = False

    def kernel_eligible(self, dialect: CsvDialect) -> bool:
        return True  # repro.kernels.jsonl, per window

    def default_dialect(self) -> CsvDialect:
        return JSONL_DIALECT

    def build_line_index(
        self, data: bytes, has_header: bool = False, base: int = 0
    ) -> np.ndarray:
        # Records are newline-aligned; JSONL never has a header line.
        return tokenizer.build_line_index(data, False, base)

    def tokenize_span(
        self,
        data: bytes,
        field_starts: np.ndarray,
        line_ends: np.ndarray,
        first_attr: int,
        last_attr: int,
        n_attrs: int,
        dialect: CsvDialect,
        schema=None,
        base: int = 0,
        first_row: int = 0,
    ) -> TokenizedRows:
        if schema is None:
            raise RawDataError("JSONL tokenizing needs the table schema")
        if first_attr != 0 or last_attr != n_attrs - 1:
            raise RawDataError(
                "JSONL records tokenize full-width (keys are unordered); "
                f"got span {first_attr}..{last_attr}"
            )
        key_to_attr = {
            c.name.encode("utf-8"): i for i, c in enumerate(schema.columns)
        }
        n_rows = len(field_starts)
        offsets = np.empty((n_rows, n_attrs + 1), dtype=np.int64)
        fields_out: list[list[bytes]] = []
        starts_list = field_starts.tolist()
        ends_list = line_ends.tolist()
        for r in range(n_rows):
            starts, tokens = parse_record(
                data,
                starts_list[r],
                ends_list[r],
                key_to_attr,
                first_row + r,
                base,
            )
            offsets[r, :n_attrs] = starts
            # Uniform end sentinel, like CSV's: one past the record's
            # end.  Dropped before map installation (full-width spans
            # install offsets[:, :-1]) — kept only for shape parity.
            offsets[r, n_attrs] = ends_list[r] + 1
            fields_out.append(tokens)
        return JsonRows(
            0, n_attrs - 1, offsets, fields_out, dialect.null_token
        )

    def extract_field(
        self,
        data: bytes,
        start: int,
        line_end: int,
        dialect: CsvDialect,
        base: int = 0,
    ) -> str:
        pos = start - base
        end = value_end(data, pos, line_end - base, base)
        return token_text(data[pos:end], start, dialect.null_token)

    def extract_fields_between(
        self,
        data: bytes,
        starts: np.ndarray,
        next_starts: np.ndarray,
        dialect: CsvDialect,
        base: int = 0,
    ) -> list[str]:
        raise RawDataError(
            "JSONL fields are not contiguous; extract_fields_between "
            "must not be called (contiguous_fields is False)"
        )

    def infer_schema(self, path, dialect: CsvDialect, sample_rows: int = 200):
        from ..rawio.sniffer import infer_schema_jsonl

        return infer_schema_jsonl(path, sample_rows=sample_rows)


JSONL_ADAPTER = register_adapter(JsonLinesAdapter())
