"""Property-based tests: tokenization of the UTF-8 bytes agrees with
naive string splitting on arbitrary generated CSV content, including
quoted dialects."""

from hypothesis import given, settings, strategies as st

from repro.errors import RawDataError
from repro.rawio.dialect import CsvDialect
from repro.rawio.tokenizer import (
    _count_fields,
    _scan_quoted_field,
    build_line_index,
    extract_field,
    extract_fields_between,
    tokenize_span,
)

PLAIN = CsvDialect(has_header=False)
QUOTED = CsvDialect(has_header=False, quote_char='"')

# Fields that need no quoting: no delimiter, quote or newline (and no
# U+FEFF, which at the very start of a file is a byte-order mark).
plain_field = st.text(
    alphabet=st.characters(
        blacklist_characters=',"\n\r\ufeff', blacklist_categories=("Cs",)
    ),
    max_size=8,
)
# Fields that may contain delimiters/quotes (exercise the quoted path).
tricky_field = st.text(
    alphabet=st.sampled_from('ab,"x '),
    max_size=8,
)


def _render_plain(rows):
    return "".join(",".join(row) + "\n" for row in rows).encode()


def _render_quoted(rows):
    out = []
    for row in rows:
        cells = []
        for field in row:
            if "," in field or '"' in field or field == "":
                cells.append('"' + field.replace('"', '""') + '"')
            else:
                cells.append(field)
        out.append(",".join(cells) + "\n")
    return "".join(out).encode()


@st.composite
def plain_tables(draw):
    n_cols = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 30))
    rows = draw(
        st.lists(
            st.lists(plain_field, min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return rows


@st.composite
def quoted_tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 15))
    rows = draw(
        st.lists(
            st.lists(tricky_field, min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return rows


@given(plain_tables())
@settings(max_examples=150, deadline=None)
def test_full_tokenize_matches_split(rows):
    content = _render_plain(rows)
    bounds = build_line_index(content)
    n_attrs = len(rows[0])
    tokenized = tokenize_span(
        content, bounds[:-1], bounds[1:] - 1, 0, n_attrs - 1, n_attrs, PLAIN
    )
    for attr in range(n_attrs):
        assert tokenized.texts_of(attr) == [row[attr] for row in rows]


@given(plain_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_selective_prefix_matches_full(rows, data):
    content = _render_plain(rows)
    bounds = build_line_index(content)
    n_attrs = len(rows[0])
    last = data.draw(st.integers(0, n_attrs - 1))
    tokenized = tokenize_span(
        content, bounds[:-1], bounds[1:] - 1, 0, last, n_attrs, PLAIN
    )
    for attr in range(last + 1):
        assert tokenized.texts_of(attr) == [row[attr] for row in rows]


@given(plain_tables())
@settings(max_examples=100, deadline=None)
def test_offsets_allow_direct_extraction(rows):
    """Every recorded offset supports a positional-map jump that
    reproduces the field text exactly."""
    content = _render_plain(rows)
    bounds = build_line_index(content)
    n_attrs = len(rows[0])
    tokenized = tokenize_span(
        content, bounds[:-1], bounds[1:] - 1, 0, n_attrs - 1, n_attrs, PLAIN
    )
    for r, row in enumerate(rows):
        line_end = int(bounds[r + 1]) - 1
        for attr in range(n_attrs):
            start = int(tokenized.offsets[r, attr])
            assert extract_field(content, start, line_end, PLAIN) == row[attr]


@given(plain_tables())
@settings(max_examples=100, deadline=None)
def test_adjacent_offsets_vectorized_extraction(rows):
    content = _render_plain(rows)
    bounds = build_line_index(content)
    n_attrs = len(rows[0])
    if n_attrs < 2:
        return
    tokenized = tokenize_span(
        content, bounds[:-1], bounds[1:] - 1, 0, n_attrs - 1, n_attrs, PLAIN
    )
    for attr in range(n_attrs - 1):
        texts = extract_fields_between(
            content,
            tokenized.offsets[:, attr],
            tokenized.offsets[:, attr + 1],
            PLAIN,
        )
        assert texts == [row[attr] for row in rows]


@given(quoted_tables())
@settings(max_examples=150, deadline=None)
def test_quoted_roundtrip(rows):
    content = _render_quoted(rows)
    bounds = build_line_index(content)
    n_attrs = len(rows[0])
    tokenized = tokenize_span(
        content, bounds[:-1], bounds[1:] - 1, 0, n_attrs - 1, n_attrs, QUOTED
    )
    for attr in range(n_attrs):
        assert tokenized.texts_of(attr) == [row[attr] for row in rows]


def _outcome(content, bounds, last, n_attrs, dialect):
    try:
        tokenized = tokenize_span(
            content, bounds[:-1], bounds[1:] - 1, 0, last, n_attrs, dialect
        )
    except RawDataError as exc:
        return str(exc)
    return tokenized.offsets


@given(
    st.lists(st.text(alphabet='ab,"', max_size=10), min_size=1, max_size=6),
    st.integers(1, 4),
    st.sampled_from([PLAIN, QUOTED]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_early_stop_accepts_what_full_width_accepts(
    lines, n_attrs, dialect, data
):
    """Any bytes, well-formed or not: a span that stops early fails with
    the full-width span's error, or agrees with its offsets."""
    content = "".join(line + "\n" for line in lines).encode()
    bounds = build_line_index(content)
    last = data.draw(st.integers(0, n_attrs - 1))
    full = _outcome(content, bounds, n_attrs - 1, n_attrs, dialect)
    early = _outcome(content, bounds, last, n_attrs, dialect)
    if isinstance(full, str):
        assert early == full
    else:
        assert not isinstance(early, str), early
        assert (early == full[:, : last + 2]).all()


def _fields_by_state_machine(line, quote):
    pos, found = 0, 0
    while pos <= len(line):
        __, pos = _scan_quoted_field(line, pos, len(line), b",", quote)
        found += 1
    return found


@given(st.text(alphabet='ab,"', max_size=16), st.sampled_from([None, b'"']))
@settings(max_examples=300, deadline=None)
def test_count_fields_equals_the_state_machine(text, quote):
    line = text.encode()
    try:
        want = _fields_by_state_machine(line, quote)
    except RawDataError as exc:
        want = str(exc)
    try:
        got = _count_fields(line, 0, len(line), b",", quote)
    except RawDataError as exc:
        got = str(exc)
    assert got == want


@given(plain_tables())
@settings(max_examples=100, deadline=None)
def test_line_index_boundaries(rows):
    content = _render_plain(rows)
    bounds = build_line_index(content)
    assert len(bounds) - 1 == len(rows)
    reconstructed = [
        content[bounds[i] : bounds[i + 1] - 1].decode()
        for i in range(len(rows))
    ]
    assert reconstructed == [",".join(row) for row in rows]
