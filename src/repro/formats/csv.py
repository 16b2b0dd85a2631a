"""The CSV adapter: the original tokenizer behind the adapter seam.

Every method delegates verbatim to :mod:`repro.rawio.tokenizer`.
"""

from __future__ import annotations

import numpy as np

from ..rawio import tokenizer
from ..rawio.dialect import CsvDialect, DEFAULT_DIALECT
from .base import FormatAdapter, register_adapter


class CsvAdapter(FormatAdapter):
    """Delimiter-separated rows: one delimiter between adjacent fields."""

    name = "csv"
    #: Field ``j`` ends where field ``j + 1`` starts (minus the delimiter).
    contiguous_fields = True
    #: Tokenizing may start at any mapped attribute's offset.
    supports_anchors = True
    #: Splitting may stop at the last attribute a query needs.
    selective_tokenizing = True

    def kernel_eligible(self, dialect: CsvDialect) -> bool:
        from ..kernels import kernel_supported

        return kernel_supported(dialect)

    def default_dialect(self) -> CsvDialect:
        return DEFAULT_DIALECT

    def build_line_index(
        self, data: bytes, has_header: bool = False, base: int = 0
    ) -> np.ndarray:
        return tokenizer.build_line_index(data, has_header, base)

    def tokenize_span(
        self,
        data: bytes,
        field_starts: np.ndarray,
        line_ends: np.ndarray,
        first_attr: int,
        last_attr: int,
        n_attrs: int,
        dialect: CsvDialect,
        schema=None,  # CSV fields are positional; names are not needed
        base: int = 0,
        first_row: int = 0,
    ):
        return tokenizer.tokenize_span(
            data,
            field_starts,
            line_ends,
            first_attr,
            last_attr,
            n_attrs,
            dialect,
            base,
            first_row,
        )

    def extract_field(
        self,
        data: bytes,
        start: int,
        line_end: int,
        dialect: CsvDialect,
        base: int = 0,
    ) -> str:
        return tokenizer.extract_field(data, start, line_end, dialect, base)

    def extract_fields_between(
        self,
        data: bytes,
        starts: np.ndarray,
        next_starts: np.ndarray,
        dialect: CsvDialect,
        base: int = 0,
    ) -> list[str]:
        return tokenizer.extract_fields_between(
            data, starts, next_starts, dialect, base
        )

    def infer_schema(self, path, dialect: CsvDialect, sample_rows: int = 200):
        from ..rawio.sniffer import infer_schema

        return infer_schema(path, dialect, sample_rows)


CSV_ADAPTER = register_adapter(CsvAdapter())
