"""Property tests for on-the-fly statistics: a column's sample, row and
NULL counts and extrema depend only on which table rows were observed.
Any split of a column into ``observe`` calls, in any order, with rows
observed again, learns what one call over the whole column learns; and
an engine reading whole columns learns the same at batch sizes 3, 7
and 4096.

``REPRO_ORACLE_EXAMPLES`` sets the examples per property (default 25;
``make oracle`` runs 250).
"""

import os

from hypothesis import given, settings, strategies as st

from repro import PostgresRaw, PostgresRawConfig
from repro.batch import ColumnVector
from repro.catalog.schema import TableSchema
from repro.core.stats import StatisticsStore
from repro.datatypes import DataType
from repro.rawio.writer import write_csv

EXAMPLES = int(os.environ.get("REPRO_ORACLE_EXAMPLES", "25"))

SCHEMA = TableSchema.from_pairs(
    [("a", "integer"), ("b", "float"), ("c", "text")]
)

ints = st.integers(-(10**6), 10**6)
floats = st.integers(-(10**4), 10**4).map(lambda v: v / 8)
# Non-empty: the default dialect reads an empty field as NULL.
texts = st.text(alphabet="abxyz09_", min_size=1, max_size=4)
seeds = st.integers(0, (1 << 64) - 1)


def _learned(stats):
    return (
        stats.rows_seen,
        stats.null_count,
        stats.min_value,
        stats.max_value,
        stats.sample.tolist(),
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_any_split_in_any_order_learns_what_one_call_does(data):
    dtype, field = data.draw(
        st.sampled_from([(DataType.INTEGER, ints), (DataType.TEXT, texts)])
    )
    values = data.draw(st.lists(st.none() | field, max_size=200))
    k = data.draw(st.integers(1, 40))
    seed = data.draw(seeds)
    n = len(values)
    cuts = data.draw(st.lists(st.integers(0, n), max_size=10))
    edges = [0, *sorted(cuts), n]
    # Every row once, and some rows again.
    again = data.draw(
        st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=4)
    )
    calls = list(zip(edges, edges[1:])) + [tuple(sorted(r)) for r in again]
    calls = data.draw(st.permutations(calls))

    whole = StatisticsStore(sample_size=k, seed=seed)
    whole.observe("x", ColumnVector.from_pylist(dtype, values), 0)
    split = StatisticsStore(sample_size=k, seed=seed)
    for lo, hi in calls:
        # Each piece converted alone, as a scan's windows are.
        piece = ColumnVector.from_pylist(dtype, values[lo:hi])
        split.observe("x", piece, lo)
    assert _learned(split.get("x")) == _learned(whole.get("x"))
    assert whole.get("x").rows_seen == n


@st.composite
def tables(draw):
    n_rows = draw(st.integers(1, 80))
    return [
        (
            draw(st.none() | ints),
            draw(st.none() | floats),
            draw(st.none() | texts),
        )
        for _ in range(n_rows)
    ]


@settings(max_examples=EXAMPLES, deadline=None)
@given(rows=tables(), k=st.sampled_from([4, 16, 1024]), seed=seeds)
def test_whole_read_statistics_do_not_depend_on_batch_size(
    tmp_path_factory, rows, k, seed
):
    path = tmp_path_factory.mktemp("stats") / "t.csv"
    write_csv(path, rows, SCHEMA)
    learned = []
    for batch_size in (3, 7, 4096):
        with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as eng:
            eng.register_csv("t", path, SCHEMA)
            store = StatisticsStore(sample_size=k, seed=seed)
            eng.table_state("t").statistics = store
            eng.query("SELECT a, b, c FROM t")
            learned.append({n: _learned(store.get(n)) for n in "abc"})
    assert learned[0] == learned[1] == learned[2]
    assert learned[0]["a"][0] == len(rows)
