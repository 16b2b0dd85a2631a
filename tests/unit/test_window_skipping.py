"""Window skipping: synopses let a scan pass over windows it cannot use.

A cache entry or promoted column of an INTEGER, FLOAT or DATE column
carries per-window min / max / NULL count.  A scan skips a
``batch_size`` window when its ``col op literal`` / ``BETWEEN`` / ``IN``
conjuncts rule every row of it out *and* reading it would teach the
engine nothing (predicate columns pinned in a binary tier, nothing to
tokenize, selective tuple formation on).  These tests pin that skipping
changes only time: each pruned predicate is compared with the same
predicate written so no synopsis can test it (``id + 0`` for ``id``),
and skips are asserted *taken*, not merely enabled.
"""

import numpy as np
import pytest

from governed import cache_layout
from repro import (
    Column,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    append_csv_rows,
    write_csv,
)
from repro.core.metrics import QueryMetrics
from repro.core.raw_scan import RawScan
from repro.core.synopsis import Interval, Synopsis, column_intervals
from repro.batch import ColumnVector
from repro.datatypes import days_to_date
from repro.sql.parser import parse_select

SCHEMA = TableSchema(
    [
        Column("id", DataType.INTEGER),
        Column("big", DataType.INTEGER),
        Column("f", DataType.FLOAT),
        Column("v", DataType.INTEGER),
        Column("d", DataType.DATE),
        Column("note", DataType.TEXT),
    ]
)
N = 200
B = 16
WINDOWS = -(-N // B)
DAY0 = 18_000


def _row(i):
    f = i / 4
    if 32 <= i < 48 or i in (81, 86):
        f = float("nan")  # window 2 all NaN, window 5 partly
    v = None if 48 <= i < 64 or i % 11 == 0 else i  # window 3 all NULL
    return (i, 2**53 + i, f, v, DAY0 + i, f"n{i}")


ROWS = [_row(i) for i in range(N)]


@pytest.fixture
def make(tmp_path):
    engines = []

    def factory(**config):
        path = tmp_path / "t.csv"
        if not path.exists():
            write_csv(path, ROWS, SCHEMA)
        eng = PostgresRaw(PostgresRawConfig(batch_size=B, **config))
        eng.register_csv("t", path, SCHEMA)
        engines.append(eng)
        return eng

    yield factory
    for eng in engines:
        eng.close()


def _skipped_total(eng):
    return eng.telemetry.registry.counter("scan_windows_skipped_total").value


def _pair(eng, columns, pruned, unpruned):
    """Run both predicates; same rows, and the skips of each."""
    a = eng.query(f"SELECT {columns} FROM t WHERE {pruned}")
    b = eng.query(f"SELECT {columns} FROM t WHERE {unpruned}")
    assert list(a) == list(b), (pruned, list(a), list(b))
    assert b.metrics.windows_skipped == 0
    return list(a), a.metrics.windows_skipped


def _state(eng):
    """Everything a scan may teach the engine, recency aside."""
    state = eng.table_state("t")
    stats = state.statistics
    return (
        cache_layout(eng),
        sorted((c.attrs, c.rows) for c in state.positional_map.entries()),
        stats.describe(),
        {n: stats.get(n).sample.tolist() for n in stats.attribute_names()},
    )


PAIRS = [
    ("id = 5", "id + 0 = 5"),
    ("id BETWEEN 40 AND 63", "id + 0 BETWEEN 40 AND 63"),
    ("id IN (3, 150)", "id + 0 IN (3, 150)"),
    ("190 < id", "190 < id + 0"),
    ("id < 0", "id + 0 < 0"),
]


def test_skipping_changes_only_time(make):
    pruning, plain = make(), make()
    for eng in (pruning, plain):
        # Cache ``id``; map ``note`` without caching it (only survivors
        # of every window are converted).
        eng.query("SELECT note FROM t WHERE id % 2 = 0")
    before = _skipped_total(pruning)
    skipped = 0
    for pruned, unpruned in PAIRS:
        sql = "SELECT id, note FROM t WHERE {}"
        a = pruning.query(sql.format(pruned))
        b = plain.query(sql.format(unpruned))
        assert list(a) == list(b)
        assert a.metrics.windows_skipped > 0
        assert b.metrics.windows_skipped == 0
        assert a.metrics.bytes_read <= b.metrics.bytes_read
        assert a.metrics.fields_converted == b.metrics.fields_converted
        assert _state(pruning) == _state(plain)
        skipped += a.metrics.windows_skipped
    assert _skipped_total(pruning) - before == skipped
    assert _skipped_total(plain) == 0
    # Windows [48, 64) and [192, 200) qualified whole: ``note`` was
    # converted for all of their rows and observed, on both engines.
    assert pruning.table_state("t").statistics.get("note").rows_seen == 24


def test_a_skipped_window_reads_nothing(make):
    eng = make()
    eng.query("SELECT note FROM t WHERE id % 2 = 0")
    result = eng.query("SELECT id, note FROM t WHERE id > 1000")
    assert list(result) == []
    assert result.metrics.windows_skipped == WINDOWS
    assert result.metrics.bytes_read == 0
    assert result.metrics.fields_converted == 0
    point = eng.query("SELECT id, note FROM t WHERE id = 5")
    assert list(point) == [(5, "n5")]
    assert point.metrics.windows_skipped == WINDOWS - 1
    assert 0 < point.metrics.bytes_read < 100  # row 5's note only


def test_every_window_skipped_still_type_checks(make):
    eng = make()
    eng.query("SELECT id, note FROM t")
    with pytest.raises(Exception, match="cannot compare"):
        eng.query("SELECT id FROM t WHERE id > 1000 AND note > 3")


@pytest.fixture
def warm(make):
    eng = make()
    eng.query("SELECT id, big, f, v, d, note FROM t")
    return eng


def test_float_windows_with_nan(warm):
    rows, skipped = _pair(warm, "id, f", "f > 1.0", "f + 0 > 1.0")
    assert skipped == 1  # window 2: nothing but NaN
    assert len(rows) == N - 5 - 16 - 2
    rows, skipped = _pair(
        warm, "id", "f BETWEEN 20.0 AND 21.5", "f + 0 BETWEEN 20.0 AND 21.5"
    )
    assert rows == [(80,), (82,), (83,), (84,), (85,)]
    assert skipped == WINDOWS - 1  # window 5 kept despite its NaNs


def test_int64_above_2_pow_53(warm):
    # A FLOAT literal compares in float64, where 2**53 + 1 == 2**53.
    rows, skipped = _pair(
        warm, "id", "big = 9007199254740992.0", "big + 0 = 9007199254740992.0"
    )
    assert rows == [(0,), (1,)]
    assert skipped == WINDOWS - 1
    rows, skipped = _pair(
        warm, "id", "big = 9007199254741099", "big + 0 = 9007199254741099"
    )
    assert rows == [(107,)] and skipped == WINDOWS - 1
    rows, skipped = _pair(
        warm, "id", "big >= 9007199254741183", "big + 0 >= 9007199254741183"
    )
    assert rows == [(i,) for i in range(191, N)] and skipped == WINDOWS - 2


def test_all_null_window(warm):
    rows, skipped = _pair(warm, "id, v", "v > -1", "v + 0 > -1")
    assert skipped == 1  # window 3 holds only NULLs
    assert len(rows) == sum(1 for r in ROWS if r[3] is not None)


def test_in_with_a_null_item(warm):
    rows, skipped = _pair(warm, "id", "id IN (5, NULL)", "id + 0 IN (5, NULL)")
    assert rows == [(5,)] and skipped == WINDOWS - 1
    rows, skipped = _pair(warm, "id", "id IN (NULL)", "id + 0 IN (NULL)")
    assert rows == [] and skipped == 0  # no interval: nothing to test


def test_between_with_reversed_bounds(warm):
    rows, skipped = _pair(
        warm, "id", "id BETWEEN 60 AND 40", "id + 0 BETWEEN 60 AND 40"
    )
    # No window reaches up to 60 and down to 40 at once.
    assert rows == [] and skipped == WINDOWS


def test_float_literal_against_an_integer_column(warm):
    assert _pair(warm, "id", "id = 5.0", "id + 0 = 5.0") == (
        [(5,)],
        WINDOWS - 1,
    )
    assert _pair(warm, "id", "id = 5.5", "id + 0 = 5.5") == ([], WINDOWS - 1)
    rows, skipped = _pair(warm, "id", "id < 17.5", "id + 0 < 17.5")
    assert rows == [(i,) for i in range(18)] and skipped == WINDOWS - 2
    assert _pair(warm, "id", "id >= 199.5", "id + 0 >= 199.5") == (
        [],
        WINDOWS,
    )


def test_date_literal(warm):
    day = days_to_date(DAY0 + 20).isoformat()
    rows, skipped = _pair(warm, "id", f"d < '{day}'", f"d + 0 < '{day}'")
    assert rows == [(i,) for i in range(20)] and skipped == WINDOWS - 2


def _scan(eng, where, row_from):
    predicate = parse_select(f"SELECT id FROM t WHERE {where}").where
    scan = RawScan(
        eng.table_state("t"),
        QueryMetrics(),
        ["id", "note"],
        predicate,
        row_from=row_from,
    )
    rows = [r for batch in scan.execute() for r in batch.rows()]
    return rows, scan.metrics.windows_skipped


def test_scan_from_a_mid_table_row(warm):
    # Rows [37, 200): windows [37, 48), [48, 64), ... [192, 200).
    pruned = _scan(warm, "id IN (40, 150)", 37)
    plain = _scan(warm, "id + 0 IN (40, 150)", 37)
    assert pruned[0] == plain[0] == [(40, "n40"), (150, "n150")]
    assert pruned[1] == WINDOWS - 2 - 2 and plain[1] == 0
    assert _scan(warm, "id < 30", 37) == ([], WINDOWS - 2)


def test_no_skip_where_a_window_would_teach_something(make, tmp_path):
    cold = make()
    result = cold.query("SELECT id FROM t WHERE id = 5")
    assert list(result) == [(5,)]
    assert result.metrics.windows_skipped == 0  # every window tokenizes
    whole = make(selective_tuple_formation=False)
    whole.query("SELECT id FROM t")
    result = whole.query("SELECT id, note FROM t WHERE id = 5")
    assert list(result) == [(5, "n5")]
    assert result.metrics.windows_skipped == 0  # windows convert ``note``


def test_columnstore_served_predicate_column(make, tmp_path):
    eng = make(vp_enabled=True, vp_min_accesses=1, vp_dir=str(tmp_path / "vp"))
    eng.query("SELECT id, note FROM t")
    state = eng.table_state("t")
    state.cache.invalidate()  # the columnstore is now the only tier
    assert state.columnstore.peek(0).synopsis.window_rows == B
    served = eng.telemetry.registry.counter("vp_served_total")
    before = served.value
    result = eng.query("SELECT id, note FROM t WHERE id BETWEEN 100 AND 101")
    assert list(result) == [(100, "n100"), (101, "n101")]
    assert result.metrics.windows_skipped == WINDOWS - 1
    assert served.value > before


def test_appended_tail_windows_are_read_then_summarized(make, tmp_path):
    eng = make()
    eng.query("SELECT id, note FROM t")
    tail = [_row(i) for i in range(N, N + 40)]
    append_csv_rows(tmp_path / "t.csv", tail, SCHEMA)
    # The tail is tokenized: windows reaching into it are read, the
    # prefix's skipped.
    result = eng.query("SELECT id FROM t WHERE id = 230")
    assert list(result) == [(230,)]
    assert result.metrics.windows_skipped == N // B
    entry = eng.table_state("t").cache.peek(0)
    assert entry.rows == N + 40 and entry.synopsis.rows == N + 40
    assert entry.synopsis.maxs.tolist()[-3:] == [207, 223, 239]
    result = eng.query("SELECT id FROM t WHERE id = 230")
    assert list(result) == [(230,)]
    assert result.metrics.windows_skipped == -(-(N + 40) // B) - 1


# ----------------------------------------------------------------------
# The synopsis and the interval helper on their own.
# ----------------------------------------------------------------------


def _vector(dtype, values):
    return ColumnVector.from_pylist(dtype, values)


def test_synopsis_extended_equals_built_whole():
    rng = np.random.default_rng(4)
    values = [
        None if v % 5 == 0 else int(v) for v in rng.integers(-50, 50, 61)
    ]
    for cut in (0, 3, 7, 8, 16, 60, 61):
        head = Synopsis.of(_vector(DataType.INTEGER, values[:cut]), 8)
        grown = head.extended(_vector(DataType.INTEGER, values[cut:]))
        whole = Synopsis.of(_vector(DataType.INTEGER, values), 8)
        assert grown.rows == whole.rows == 61
        for field in ("mins", "maxs", "nulls"):
            assert getattr(grown, field).tolist() == getattr(
                whole, field
            ).tolist()


def test_synopsis_types_and_nan():
    assert Synopsis.of(_vector(DataType.TEXT, ["a"]), 4) is None
    assert Synopsis.of(_vector(DataType.BOOLEAN, [True]), 4) is None
    floats = [float("nan"), None, 2.5, float("nan"), None, None]
    synopsis = Synopsis.of(_vector(DataType.FLOAT, floats), 3)
    assert synopsis.mins.tolist()[0] == 2.5
    assert np.isnan(synopsis.mins[1]) and synopsis.nulls.tolist() == [1, 2]
    ((__, intervals),) = _intervals("f > 0")
    assert synopsis.possible(intervals).tolist() == [True, False]


def _intervals(where):
    statement = parse_select(f"SELECT a FROM t WHERE {where}")
    return column_intervals(statement.where)


def test_column_intervals_are_conservative_shapes():
    named = _intervals("a = 1 AND 2 > b AND c <> 3")
    assert [name for name, __ in named] == ["a", "b"]
    ((name, (low_only,)),) = _intervals("5 <= a")
    assert name == "a" and low_only.high is None and low_only.low_inclusive
    assert isinstance(_intervals("a IN (1, 2)")[0][1][0], Interval)
    for unusable in (
        "a NOT BETWEEN 1 AND 2",
        "a NOT IN (1)",
        "a IN (NULL)",
        "a BETWEEN NULL AND 2",
        "a = NULL",
        "a = 'x'",  # a TEXT literal
        "a = TRUE",
        f"a = {2**70}",  # not an int64
        "a < 1 OR a > 5",
        "a + 0 = 1",
    ):
        assert _intervals(unusable) == [], unusable
