"""The format-adapter seam: one interface per raw on-disk format.

NoDB's machinery — positional maps, selective parsing, adaptive caching
— is format-agnostic; only the *tokenizing geometry* differs per format.
A :class:`FormatAdapter` captures exactly that geometry so the scan
operator (:class:`repro.core.raw_scan.RawScan`), the parallel chunk
workers and the schema sniffer can serve any newline-delimited format
through the same adaptive cold->warm flow:

* :meth:`build_line_index` — record (tuple) boundaries, the positional
  map's pinned backbone;
* :meth:`tokenize_span` — locate the fields of a record range, producing
  the :class:`repro.rawio.tokenizer.TokenizedRows` offsets matrix the
  positional map installs;
* :meth:`extract_field` / :meth:`extract_fields_between` — the warm
  positional-map jump: read one field given its recorded start offset.

Capability flags tell the scan which shortcuts are sound for the format:

``contiguous_fields``
    Adjacent schema attributes in a map chunk imply that the next
    attribute's start closes this field (true for CSV, where fields are
    separated by exactly one delimiter; false for JSON-lines, where
    ``", \"key\": "`` syntax sits between values and key order is not
    fixed).
``supports_anchors``
    Tokenizing may start mid-record at a mapped attribute ("jump ... as
    close as possible").  False forces every tokenize to start at the
    record start with attribute 0.
``selective_tokenizing``
    Tokenizing may stop at the last needed attribute.  False (e.g.
    JSON-lines, whose keys arrive in arbitrary per-record order) always
    tokenizes the full record, so the map learns every attribute at once.

**Byte-offset contract.**  Adapters never see "the content" of a file:
they see ``data``, the bytes of the file range starting at file offset
``base``, and every offset they take or return — record bounds, field
starts, error positions — is a byte offset into the *file*.  Nothing is
rewritten or decoded up front:

* **Record ends.**  A record ends at its ``\n`` or at end-of-file
  (:meth:`build_line_index` closes an unterminated final record in one
  place).  When the bytes being indexed contain ``\r\n`` the scan keeps
  a flag beside the line index and trims one trailing ``\r`` per record
  (:func:`repro.rawio.tokenizer.trim_cr`) before handing ``line_ends``
  to any method here — LF files pay nothing, mixed CRLF/LF files are
  decided per record, and a ``\r`` anywhere else is data.  Parallel byte
  chunks are cut after ``\n``, so a CRLF pair never straddles chunks.
  An append that first closes an unterminated last record — with
  ``\n`` or ``\r\n`` — is indexed from the byte after that separator.
* **Byte-order mark.**  A UTF-8 BOM at file offset 0 is skipped by
  :meth:`build_line_index` (the first record starts at byte 3) and by
  the schema sniffer.
* **Lazy, strict decoding.**  Fields become ``str`` only when extracted
  (:meth:`extract_field`, ``TokenizedRows.texts_of``), strictly as
  UTF-8.  A byte sequence that does not decode fails the query that
  asks for that field with :class:`repro.errors.RawDataError` naming
  the row; queries over the table's other columns are unaffected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..catalog.schema import TableSchema
    from ..rawio.dialect import CsvDialect
    from ..rawio.tokenizer import TokenizedRows


class FormatAdapter:
    """Per-format tokenizing geometry behind one in-situ scan operator."""

    #: Catalog / kernel-signature key of the format (``"csv"``, ...).
    name: str = ""
    contiguous_fields: bool = False
    supports_anchors: bool = False
    selective_tokenizing: bool = False

    def kernel_eligible(self, dialect: "CsvDialect") -> bool:
        """May :mod:`repro.kernels` tokenize this (format, dialect)?

        ``False`` keeps the interpreted per-record path.
        """
        return False

    def default_dialect(self) -> "CsvDialect":
        """The dialect a table of this format registers with by default."""
        raise NotImplementedError

    def build_line_index(
        self, data: bytes, has_header: bool = False, base: int = 0
    ) -> np.ndarray:
        """Record-boundary array, length ``n_rows + 1`` (see tokenizer)."""
        raise NotImplementedError

    def tokenize_span(
        self,
        data: bytes,
        field_starts: np.ndarray,
        line_ends: np.ndarray,
        first_attr: int,
        last_attr: int,
        n_attrs: int,
        dialect: "CsvDialect",
        schema: "TableSchema | None" = None,
        base: int = 0,
    ) -> "TokenizedRows":
        """Locate fields for a record range; offsets feed the map.

        ``schema`` carries attribute names for formats that address
        fields by key (JSON-lines); positional formats ignore it.
        """
        raise NotImplementedError

    def extract_field(
        self,
        data: bytes,
        start: int,
        line_end: int,
        dialect: "CsvDialect",
        base: int = 0,
    ) -> str:
        """Warm map jump: read one field given its recorded start offset."""
        raise NotImplementedError

    def extract_fields_between(
        self,
        data: bytes,
        starts: np.ndarray,
        next_starts: np.ndarray,
        dialect: "CsvDialect",
        base: int = 0,
    ) -> list[str]:
        """Extraction when the map knows the next field's start too.

        Only called when :attr:`contiguous_fields` is true.
        """
        raise NotImplementedError

    def infer_schema(
        self,
        path,
        dialect: "CsvDialect",
        sample_rows: int = 200,
    ) -> "TableSchema":
        raise NotImplementedError


def adapter_for(fmt: str) -> FormatAdapter:
    """The (stateless, shared) adapter instance for a format name."""
    try:
        return _ADAPTERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown table format {fmt!r} (have {sorted(_ADAPTERS)})"
        ) from None


def register_adapter(adapter: FormatAdapter) -> FormatAdapter:
    _ADAPTERS[adapter.name] = adapter
    return adapter


_ADAPTERS: dict[str, FormatAdapter] = {}
