"""Property: for arbitrary tables, queries and fetch granularities,
the streamed result (batch iteration and ``fetchmany`` in odd sizes) is
row-for-row identical to the materialized result and to a fresh engine
— including after an external append (the partially-mapped tail-scan
path)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import PostgresRaw, PostgresRawConfig
from repro.catalog.schema import TableSchema
from repro.executor.result import batch_rows
from repro.rawio.writer import append_csv_rows, write_csv

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "integer"), ("c", "integer")]
)

rows_strategy = st.lists(
    st.tuples(
        st.integers(-999, 999), st.integers(0, 99), st.integers(-50, 50)
    ),
    min_size=1,
    max_size=220,
)

QUERIES = [
    "SELECT a, b FROM t WHERE c < 10",
    "SELECT c FROM t",
    "SELECT a, b, c FROM t WHERE b >= 50",
]


CONFIG = PostgresRawConfig(batch_size=16, stream_queue_batches=2)


@settings(max_examples=25, deadline=None)
@given(
    rows=rows_strategy,
    tail=st.lists(
        st.tuples(
            st.integers(-999, 999), st.integers(0, 99), st.integers(-50, 50)
        ),
        min_size=0,
        max_size=60,
    ),
    fetch_size=st.integers(1, 9),
    query=st.sampled_from(QUERIES),
)
def test_streamed_fetchmany_and_materialized_agree(
    tmp_path_factory, rows, tail, fetch_size, query
):
    tmp = tmp_path_factory.mktemp("stream_props")
    path = tmp / "t.csv"
    write_csv(path, rows, SCHEMA)

    # Ground truth from a fresh serial engine.
    with PostgresRaw() as reference_engine:
        reference_engine.register_csv("t", path, SCHEMA)
        reference_cold = reference_engine.query(query).rows

    with PostgresRaw(CONFIG) as engine:
        engine.register_csv("t", path, SCHEMA)

        # Cold: streamed batches vs reference.
        streamed = []
        with engine.query_stream(query) as cursor:
            for batch in cursor.batches():
                streamed.extend(batch_rows(batch, cursor.column_names))
        assert streamed == reference_cold

        # Warm: fetchmany in odd sizes vs materialized.
        materialized = engine.query(query).rows
        assert materialized == reference_cold
        cursor = engine.query_stream(query)
        fetched = []
        while True:
            got = cursor.fetchmany(fetch_size)
            fetched.extend(got)
            if len(got) < fetch_size:
                break
        assert fetched == materialized

        if tail:
            # External append: the next scan stitches the unmapped tail.
            append_csv_rows(path, tail, SCHEMA)
            with PostgresRaw() as reference_engine:
                reference_engine.register_csv("t", path, SCHEMA)
                reference_appended = reference_engine.query(query).rows
            appended_streamed = list(engine.query_stream(query))
            assert appended_streamed == reference_appended
            assert engine.query(query).rows == reference_appended
