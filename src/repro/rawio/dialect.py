"""CSV dialect description.

The paper's raw files are comma-separated value files — "being a common
data source, they present an ideal use case for PostgresRaw".  The
dialect captures the few degrees of freedom the engine must understand;
the default (comma, no quoting, empty string = NULL, header line) is the
format the bundled generator emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import SchemaError


@dataclass(frozen=True)
class CsvDialect:
    """How a raw file's bytes map to tuples and fields.

    ``quote_char=None`` with an ASCII delimiter selects the vectorized
    scan kernel (fields may not contain the delimiter or newlines);
    setting a quote character, or a non-ASCII delimiter, selects the
    RFC-4180-style state machine with doubled-quote escapes.
    """

    delimiter: str = ","
    quote_char: str | None = None
    null_token: str = ""
    has_header: bool = True

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1:
            raise SchemaError("delimiter must be a single character")
        if self.delimiter == "\n":
            raise SchemaError("delimiter may not be the newline character")
        if self.quote_char is not None:
            if len(self.quote_char) != 1:
                raise SchemaError("quote_char must be a single character")
            if self.quote_char == self.delimiter:
                raise SchemaError("quote_char must differ from the delimiter")

    @property
    def quoting(self) -> bool:
        return self.quote_char is not None

    # The tokenizers work on bytes; encoded once per dialect (a
    # cached_property writes the instance dict, which frozen allows).
    @cached_property
    def delimiter_bytes(self) -> bytes:
        return self.delimiter.encode("utf-8")

    @cached_property
    def quote_bytes(self) -> bytes | None:
        return self.quote_char.encode("utf-8") if self.quoting else None


DEFAULT_DIALECT = CsvDialect()
