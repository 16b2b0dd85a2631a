"""A cold scan's positional map is the per-window reference, in place.

A stride tokenizes each window once, straight into the rows of one
table-wide offsets matrix per tokenized span; the map installs that
matrix as one chunk.  For generated files — LF or CRLF, the last row
terminated or not — and batches of 3, 7 and 4096 rows, the chunk a
cold query installs must equal the state machine's offsets of every
row (:func:`repro.rawio.tokenizer.tokenize_span`), column for column.
A ``LIMIT`` that abandons the scan installs only the rows it wrote,
and the chunk holds exactly the bytes the governor charged for it.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.rawio.dialect import CsvDialect
from repro.rawio.tokenizer import build_line_index, tokenize_span, trim_cr

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "text"), ("c", "integer"), ("d", "float")]
)
#: No header: every line is a row.
DIALECT = CsvDialect(has_header=False)
EXAMPLES = int(os.environ.get("REPRO_ORACLE_EXAMPLES", 25))

#: Query -> the attributes of the one chunk a cold run installs.
QUERIES = {
    "SELECT a, b, c, d FROM t": (0, 1, 2, 3),
    "SELECT b FROM t WHERE a >= 0": (0, 1, 2),
    "SELECT a, d FROM t WHERE c % 2 = 0": (0, 1, 2, 3),
    "SELECT c FROM t WHERE a < 50": (0, 1, 2, 3),
}


@st.composite
def raw_files(draw):
    n_rows = draw(st.integers(1, 40))
    lines = [
        ",".join(
            [
                str(draw(st.integers(-99, 99))),
                draw(st.text(alphabet="xyz é", max_size=5)),
                str(draw(st.integers(0, 10**6))),
                f"{draw(st.integers(0, 9999)) / 100:.2f}",
            ]
        )
        for __ in range(n_rows)
    ]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join(lines)
    if draw(st.booleans()):
        data += newline
    return data.encode()


def reference(data: bytes) -> np.ndarray:
    """Every row's offsets of attributes 0..3 and its end sentinel."""
    bounds = build_line_index(data)
    starts = bounds[:-1]
    ends = trim_cr(np.frombuffer(data, np.uint8), starts, bounds[1:] - 1)
    return tokenize_span(data, starts, ends, 0, 3, 4, DIALECT).offsets


def only_chunk(engine):
    (chunk,) = engine.table_state("t").positional_map.entries()
    return chunk


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    data=raw_files(),
    sql=st.sampled_from(sorted(QUERIES)),
    batch_size=st.sampled_from([3, 7, 4096]),
)
def test_a_cold_chunk_is_the_per_window_reference(
    tmp_path_factory, data, sql, batch_size
):
    path = tmp_path_factory.mktemp("install") / "t.csv"
    path.write_bytes(data)
    want = reference(data)
    with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as engine:
        engine.register_csv("t", str(path), SCHEMA, DIALECT)
        engine.query(sql)
        chunk = only_chunk(engine)
        assert chunk.attrs == QUERIES[sql]
        assert np.array_equal(chunk.offsets, want[:, list(chunk.attrs)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=raw_files(), batch_size=st.sampled_from([3, 7]))
def test_an_abandoned_scan_installs_the_prefix_it_holds(
    tmp_path_factory, data, batch_size
):
    path = tmp_path_factory.mktemp("install") / "t.csv"
    path.write_bytes(data)
    want = reference(data)
    with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as engine:
        engine.register_csv("t", str(path), SCHEMA, DIALECT)
        assert len(engine.query("SELECT a, d FROM t LIMIT 1").rows) == 1
        chunk = only_chunk(engine)
        # Whole windows, from row 0: the scan stopped after the first.
        assert chunk.rows == min(batch_size, len(want))
        assert np.array_equal(chunk.offsets, want[: chunk.rows, :4])
        # The chunk owns its rows: the governor charged what it holds.
        assert chunk.offsets.base is None
        pm = engine.table_state("t").positional_map
        assert pm.governed_bytes() == chunk.offsets.nbytes == chunk.nbytes
