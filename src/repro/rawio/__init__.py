"""Raw-file substrate: CSV dialects, readers, tokenizers and generators."""

from .dialect import CsvDialect
from .reader import RawFileReader
from .tokenizer import (
    build_line_index,
    tokenize_span,
    TokenizedRows,
    extract_field,
    extract_fields_between,
)
from .generator import (
    ColumnSpec,
    DatasetSpec,
    generate_csv,
    uniform_table_spec,
)
from .sniffer import sniff_format
from .writer import (
    append_csv_rows,
    append_jsonl_rows,
    write_csv,
    write_jsonl,
)

__all__ = [
    "CsvDialect",
    "RawFileReader",
    "build_line_index",
    "tokenize_span",
    "TokenizedRows",
    "extract_field",
    "extract_fields_between",
    "ColumnSpec",
    "DatasetSpec",
    "generate_csv",
    "uniform_table_spec",
    "write_csv",
    "append_csv_rows",
    "write_jsonl",
    "append_jsonl_rows",
    "sniff_format",
]
