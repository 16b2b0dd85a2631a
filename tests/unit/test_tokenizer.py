"""Unit tests for line indexing, selective tokenization and extraction."""

import numpy as np
import pytest

from repro.errors import RawDataError
from repro.rawio.dialect import CsvDialect
from repro.rawio.tokenizer import (
    build_line_index,
    extract_field,
    extract_fields_between,
    tokenize_span,
    trim_cr,
)

PLAIN = CsvDialect(has_header=False)
QUOTED = CsvDialect(has_header=False, quote_char='"')


def _lines(data, row_from, row_to, last_attr, n_attrs, dialect):
    """Rows ``[row_from, row_to)`` of LF-terminated ``data``, tokenized
    from attribute 0 through ``last_attr``."""
    bounds = build_line_index(data)
    return tokenize_span(
        data,
        bounds[row_from:row_to],
        bounds[row_from + 1 : row_to + 1] - 1,
        0,
        last_attr,
        n_attrs,
        dialect,
    )


class TestLineIndex:
    def test_trailing_newline(self):
        bounds = build_line_index(b"ab\ncd\n")
        assert bounds.tolist() == [0, 3, 6]

    def test_no_trailing_newline(self):
        bounds = build_line_index(b"ab\ncd")
        assert bounds.tolist() == [0, 3, 6]

    def test_single_line(self):
        assert build_line_index(b"abc\n").tolist() == [0, 4]

    def test_empty_content(self):
        assert build_line_index(b"").tolist() == [0]

    def test_header_skipped(self):
        bounds = build_line_index(b"h1,h2\n1,2\n3,4\n", has_header=True)
        assert bounds.tolist() == [6, 10, 14]

    def test_header_only(self):
        bounds = build_line_index(b"h1,h2\n", has_header=True)
        assert len(bounds) - 1 == 0

    def test_non_ascii_content(self):
        content = "aé,b\ncd,e\n".encode()
        bounds = build_line_index(content)
        # Offsets are byte offsets into the file: é is two bytes.
        assert bounds.tolist() == [0, 6, 11]
        assert content[bounds[0] : bounds[1] - 1].decode() == "aé,b"

    def test_bom_is_skipped_at_file_start_only(self):
        content = b"\xef\xbb\xbf1,2\n3,4\n"
        assert build_line_index(content).tolist() == [3, 7, 11]
        assert build_line_index(content, has_header=True).tolist() == [7, 11]
        # The same bytes as a mid-file range are data, not a mark.
        assert build_line_index(content, base=100).tolist() == [100, 107, 111]
        assert build_line_index(b"\xef\xbb\xbf").tolist() == [3]

    def test_base_shifts_to_file_offsets(self):
        assert build_line_index(b"ab\ncd", base=10).tolist() == [10, 13, 16]

    def test_line_extraction_roundtrip(self):
        content = b"one,1\ntwo,2\nthree,3\n"
        bounds = build_line_index(content)
        lines = [
            content[bounds[i] : bounds[i + 1] - 1]
            for i in range(len(bounds) - 1)
        ]
        assert lines == [b"one,1", b"two,2", b"three,3"]


class TestTokenizeLines:
    CONTENT = b"10,20,30,40\n11,21,31,41\n12,22,32,42\n"

    def _bounds(self):
        return build_line_index(self.CONTENT)

    def test_full_tokenize(self):
        rows = _lines(self.CONTENT, 0, 3, 3, 4, PLAIN)
        assert rows.texts_of(0) == ["10", "11", "12"]
        assert rows.texts_of(3) == ["40", "41", "42"]

    def test_selective_stops_early(self):
        rows = _lines(self.CONTENT, 0, 3, 1, 4, PLAIN)
        assert rows.texts_of(1) == ["20", "21", "22"]
        assert rows.offsets.shape == (3, 3)  # attrs 0,1 + sentinel

    def test_offsets_point_at_field_starts(self):
        rows = _lines(self.CONTENT, 0, 3, 3, 4, PLAIN)
        for r in range(3):
            for j in range(4):
                start = rows.offsets[r, j]
                assert (
                    self.CONTENT[start : start + 2].decode()
                    == rows.texts_of(j)[r]
                )

    def test_sentinel_column(self):
        rows = _lines(self.CONTENT, 0, 3, 1, 4, PLAIN)
        # Sentinel = start of attr 2.
        full = _lines(self.CONTENT, 0, 3, 3, 4, PLAIN)
        assert rows.offsets[:, 2].tolist() == full.offsets[:, 2].tolist()

    def test_row_subrange(self):
        rows = _lines(self.CONTENT, 1, 3, 0, 4, PLAIN)
        assert rows.texts_of(0) == ["11", "12"]

    def test_too_few_fields_raises(self):
        content = b"1,2\n3\n"
        with pytest.raises(RawDataError):
            _lines(content, 0, 2, 1, 2, PLAIN)

    def test_too_many_fields_raises_on_full_split(self):
        content = b"1,2,3\n"
        with pytest.raises(RawDataError):
            _lines(content, 0, 1, 1, 2, PLAIN)

    def test_attr_out_of_range(self):
        with pytest.raises(RawDataError):
            _lines(self.CONTENT, 0, 3, 4, 4, PLAIN)

    def test_empty_fields(self):
        content = b",,x\n,y,\n"
        rows = _lines(content, 0, 2, 2, 3, PLAIN)
        assert rows.texts_of(0) == ["", ""]
        assert rows.texts_of(1) == ["", "y"]
        assert rows.texts_of(2) == ["x", ""]


class TestTokenizeSpan:
    CONTENT = b"10,20,30,40\n11,21,31,41\n"

    def test_anchored_span_skips_prefix(self):
        bounds = build_line_index(self.CONTENT)
        full = _lines(self.CONTENT, 0, 2, 3, 4, PLAIN)
        anchors = full.offsets[:, 2]  # start of attr 2
        line_ends = bounds[1:] - 1
        span = tokenize_span(
            self.CONTENT, anchors, line_ends, 2, 3, 4, PLAIN
        )
        assert span.texts_of(2) == ["30", "31"]
        assert span.texts_of(3) == ["40", "41"]

    def test_bad_span_raises(self):
        bounds = build_line_index(self.CONTENT)
        with pytest.raises(RawDataError):
            tokenize_span(
                self.CONTENT, bounds[:-1], bounds[1:] - 1, 2, 1, 4, PLAIN
            )


class TestQuotedTokenizer:
    def test_quoted_fields_with_delimiters(self):
        content = b'"a,b",2\n"c""d",4\n'
        rows = _lines(content, 0, 2, 1, 2, QUOTED)
        assert rows.texts_of(0) == ["a,b", 'c"d']
        assert rows.texts_of(1) == ["2", "4"]

    def test_mixed_quoted_unquoted(self):
        content = b'x,"y z",w\n'
        rows = _lines(content, 0, 1, 2, 3, QUOTED)
        assert rows.texts_of(1) == ["y z"]

    def test_unterminated_quote_raises(self):
        content = b'"abc,2\n'
        with pytest.raises(RawDataError):
            _lines(content, 0, 1, 1, 2, QUOTED)

    def test_too_few_fields_raises(self):
        content = b"1\n"
        with pytest.raises(RawDataError):
            _lines(content, 0, 1, 1, 2, QUOTED)

    def test_offsets_usable_for_extraction(self):
        content = b'"a,b",xyz,3\n'
        rows = _lines(content, 0, 1, 2, 3, QUOTED)
        start = int(rows.offsets[0, 1])
        assert extract_field(content, start, len(content) - 1, QUOTED) == "xyz"
        quoted_start = int(rows.offsets[0, 0])
        assert (
            extract_field(content, quoted_start, len(content) - 1, QUOTED)
            == "a,b"
        )


class TestExtraction:
    CONTENT = b"10,200,3\n40,500,6\n"

    def test_extract_field(self):
        bounds = build_line_index(self.CONTENT)
        assert extract_field(self.CONTENT, 3, 8, PLAIN) == "200"
        assert extract_field(self.CONTENT, 7, 8, PLAIN) == "3"  # last field

    def test_extract_fields_between(self):
        starts = np.array([3, 12])
        next_starts = np.array([7, 16])
        texts = extract_fields_between(
            self.CONTENT, starts, next_starts, PLAIN
        )
        assert texts == ["200", "500"]

    def test_extract_fields_between_quoted(self):
        content = b'"a,b",2\n'
        texts = extract_fields_between(
            content, np.array([0]), np.array([6]), QUOTED
        )
        assert texts == ["a,b"]


class TestByteWindows:
    """Every function takes the bytes of a file range plus the range's
    file offset, and speaks file offsets in and out."""

    FILE = b"x,y\n10,20,30\n11,21,31\n"
    BASE = 4  # the window starts at the first data row

    def test_tokenize_span_in_a_window_returns_file_offsets(self):
        window = self.FILE[self.BASE :]
        bounds = build_line_index(window, base=self.BASE)
        assert bounds.tolist() == [4, 13, 22]
        rows = tokenize_span(
            window, bounds[:-1], bounds[1:] - 1, 0, 2, 3, PLAIN, self.BASE
        )
        whole = tokenize_span(
            self.FILE, bounds[:-1], bounds[1:] - 1, 0, 2, 3, PLAIN
        )
        assert np.array_equal(rows.offsets, whole.offsets)
        assert rows.texts_of(1) == ["20", "21"]
        # The map points at the bytes.
        assert self.FILE[rows.offsets[1, 2] :].startswith(b"31")

    def test_extraction_in_a_window(self):
        window = self.FILE[self.BASE :]
        assert extract_field(window, 7, 12, PLAIN, self.BASE) == "20"
        texts = extract_fields_between(
            window, np.array([7, 16]), np.array([10, 19]), PLAIN, self.BASE
        )
        assert texts == ["20", "21"]

    def test_trim_cr_per_record(self):
        data = b"1,a\r\n2,b\n\r\n3,c\r"  # CRLF, LF, empty CRLF, bare CR
        bounds = build_line_index(data)
        starts, ends = bounds[:-1], bounds[1:] - 1
        buf = np.frombuffer(data, dtype=np.uint8)
        trimmed = trim_cr(buf, starts, ends)
        assert [data[s:e] for s, e in zip(starts, trimmed)] == [
            b"1,a", b"2,b", b"", b"3,c"
        ]
        # Tokenizing up to the trimmed ends drops the ``\r``.
        rows = tokenize_span(data, starts[:2], trimmed[:2], 0, 1, 2, PLAIN)
        assert rows.texts_of(1) == ["a", "b"]

    def test_multibyte_delimiter_uses_one_sentinel_rule(self):
        dialect = CsvDialect(has_header=False, delimiter="§")
        data = "a§bé§c\n".encode()
        rows = _lines(data, 0, 1, 2, 3, dialect)
        assert [rows.texts_of(j) for j in range(3)] == [["a"], ["bé"], ["c"]]
        # Every column boundary is "field end + one delimiter width".
        starts = rows.offsets[0]
        assert extract_fields_between(
            data, starts[:-1], starts[1:], dialect
        ) == ["a", "bé", "c"]
        assert extract_field(data, int(starts[1]), 9, dialect) == "bé"

    def test_invalid_utf8_fails_only_the_field_that_holds_it(self):
        data = b"1,ok\n2,\xff\xfe\n"
        rows = _lines(data, 0, 2, 1, 2, PLAIN)
        assert rows.texts_of(0) == ["1", "2"]
        assert rows.texts_of(1, [0]) == ["ok"]
        with pytest.raises(RawDataError, match="not valid UTF-8") as info:
            rows.texts_of(1)
        assert info.value.offset == 7
        with pytest.raises(RawDataError, match="byte offset 7"):
            extract_field(data, 7, 9, PLAIN)
