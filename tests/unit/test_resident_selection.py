"""Whole-column selection over resident columns.

A scan whose predicate columns all come from the cache or the
columnstore, with nothing left to tokenize, evaluates its predicate
once per stride: the first stride is the first batch, each later one
doubles.  These tests pin what that may and may not change: the first
batch, row order, what the cache and statistics learn, bytes read and
the work a tokenizing scan does.
"""

import numpy as np
import pytest

import repro.core.raw_scan as raw_scan_mod

from repro import (
    Column,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    write_csv,
)
from repro.batch import ColumnVector
from repro.core.metrics import QueryMetrics
from repro.core.raw_scan import RawScan
from repro.core.stats import StatisticsStore
from repro.rawio.reader import RawFileReader
from repro.sql.parser import parse_select

SCHEMA = TableSchema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.INTEGER),
        Column("c", DataType.TEXT),
        Column("f", DataType.FLOAT),
    ]
)
N = 200
B = 16
ROWS = [(i, i * 3, f"r{i}", i / 7 + 1e10 * (i % 3 - 1)) for i in range(N)]


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


@pytest.fixture
def scans(monkeypatch):
    """Every scan executed, in order (each keeps its plan)."""
    seen = []
    execute = RawScan.execute

    def spy(self):
        seen.append(self)
        return execute(self)

    monkeypatch.setattr(RawScan, "execute", spy)
    return seen


def _residency(scans):
    return [scan.plan.resident for scan in scans]


def _scan(eng, columns, where, row_from=0):
    """A bare scan over ``t``'s adaptive state, and its batches."""
    predicate = parse_select(f"SELECT a FROM t WHERE {where}").where
    scan = RawScan(
        eng.table_state("t"),
        QueryMetrics(),
        columns,
        predicate,
        row_from=row_from,
    )
    return scan, list(scan.execute())


def _column(batches, name):
    return [v for batch in batches for v in batch.column(name).to_pylist()]


def _warm_all(eng):
    """Cache every column of ``t`` (no predicate: every batch whole)."""
    eng.query("SELECT a, b, c, f FROM t")


def _warm_jumped_c(eng):
    """Cache ``a``, map ``c`` without caching it: every batch has some
    rows that fail the predicate, so ``c`` is only ever converted for
    the survivors."""
    eng.query("SELECT c FROM t WHERE a % 2 = 0")
    cache = eng.table_state("t").cache
    assert cache.peek(0) is not None and cache.peek(2) is None


def test_first_batch_is_the_per_batch_scans_first_batch(make, scans):
    cold = make()
    __, cold_batches = _scan(cold, ["a", "b"], "a % 3 = 0")
    assert _residency(scans) == [False]
    warm = make()
    _warm_all(warm)
    __, warm_batches = _scan(warm, ["a", "b"], "a % 3 = 0")
    assert _residency(scans)[-1] is True
    first = [r[0] for r in ROWS[:B] if r[0] % 3 == 0]
    for batches in (cold_batches, warm_batches):
        assert batches[0].column("a").to_pylist() == first
        assert batches[0].column("b").to_pylist() == [3 * a for a in first]


def test_batches_arrive_in_row_order_packed_per_stride(make, scans):
    eng = make()
    _warm_all(eng)
    scan, batches = _scan(eng, ["a", "c"], "a % 3 = 0")
    assert _residency(scans)[-1] is True
    expected = [r[0] for r in ROWS if r[0] % 3 == 0]
    assert _column(batches, "a") == expected
    assert _column(batches, "c") == [f"r{a}" for a in expected]
    # Strides [0, 16) [16, 48) [48, 112) [112, 200) hold 6, 10, 22 and
    # 29 survivors; each leaves in batches of at most 16 rows.
    strides = [(0, 16), (16, 48), (48, 112), (112, 200)]
    assert list(scan.plan.strides()) == strides
    assert [b.num_rows for b in batches] == [6, 10, 16, 6, 16, 13]


def test_fully_qualifying_window_still_collects_jumped_column(make, scans):
    eng = make()
    _warm_jumped_c(eng)
    result = eng.query("SELECT a, c FROM t WHERE a < 16 OR a % 2 = 0")
    assert _residency(scans)[-1] is True
    expected = [(a, f"r{a}") for a in range(N) if a < 16 or a % 2 == 0]
    assert list(result) == expected
    # Window [0, 16) qualified whole: ``c`` was converted for all of it,
    # collected, and installed as a 16-row cache prefix.
    entry = eng.table_state("t").cache.peek(2)
    assert entry is not None and entry.rows == B
    assert result.metrics.fields_converted == len(expected)


def test_zero_survivors_yield_no_batch_and_read_no_bytes(make, scans):
    eng = make()
    _warm_jumped_c(eng)
    scan, batches = _scan(eng, ["a", "c"], "a < 0")
    assert _residency(scans)[-1] is True
    assert batches == []
    assert scan.metrics.bytes_read == 0
    assert scan.metrics.fields_converted == 0


def test_limit_stops_after_the_first_stride(make, scans, monkeypatch):
    eng = make()
    _warm_all(eng)
    masked = []
    mask = raw_scan_mod.predicate_mask

    def counting(predicate, batch):
        masked.append(batch.num_rows)
        return mask(predicate, batch)

    monkeypatch.setattr(raw_scan_mod, "predicate_mask", counting)
    assert list(eng.query("SELECT a FROM t WHERE a >= 0 LIMIT 3")) == [
        (0,),
        (1,),
        (2,),
    ]
    assert _residency(scans)[-1] is True
    # The first stride is one batch, and the scan stopped after it.
    assert next(scans[-1].plan.strides()) == (0, B)
    assert masked == [B]


def test_columnstore_served_predicate_column(make, scans, tmp_path):
    eng = make(vp_enabled=True, vp_dir=str(tmp_path / "vp"))
    # ``a`` and ``b`` mapped, converted for survivors only, then jumped
    # until their rent buys their load.
    state = eng.table_state("t")
    for _ in range(5):
        eng.query("SELECT a, b FROM t WHERE f > 0")
    store = state.columnstore
    assert store.coverage_rows(0) == store.coverage_rows(1) == N
    assert state.cache.peek(0) is None and state.cache.peek(1) is None
    served = eng.telemetry.registry.counter("vp_served_total")
    before = served.value
    result = eng.query("SELECT a, b FROM t WHERE a % 5 = 0 AND b > 30")
    assert _residency(scans)[-1] is True
    assert served.value > before
    assert list(result) == [
        (a, b) for a, b, __, __ in ROWS if a % 5 == 0 and b > 30
    ]
    assert result.metrics.fields_tokenized == 0
    assert result.metrics.fields_converted == 0


def test_scan_from_a_mid_table_row(make, scans):
    eng = make()
    _warm_all(eng)
    __, batches = _scan(eng, ["a", "c"], "a % 2 = 0", row_from=37)
    assert _residency(scans)[-1] is True
    expected = [a for a in range(37, N) if a % 2 == 0]
    # The first stride ends at the first table-wide batch cut.
    assert batches[0].column("a").to_pylist() == [38, 40, 42, 44, 46]
    assert _column(batches, "a") == expected
    assert _column(batches, "c") == [f"r{a}" for a in expected]


@pytest.mark.parametrize("batch_size", [3, B, 4096])
def test_tokenizing_scan_tokenizes_every_batch(tmp_path, scans, batch_size):
    path = tmp_path / "t.csv"
    write_csv(path, ROWS, SCHEMA)
    with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as eng:
        eng.register_csv("t", path, SCHEMA)
        # Most batches have no survivor: each is still tokenized once,
        # ``a`` for the predicate, then ``b`` and ``c`` anchored on it.
        result = eng.query("SELECT c FROM t WHERE a < 20")
        assert _residency(scans) == [False]
        assert list(result) == [(f"r{a}",) for a in range(20)]
        assert result.metrics.fields_tokenized == N * 3


def test_float_sum_is_bit_identical_over_packed_batches(make, scans):
    sql = "SELECT SUM(f), AVG(f), COUNT(f) FROM t WHERE a % 3 <> 1"
    cold = make()
    (cold_row,) = list(cold.query(sql))
    assert _residency(scans) == [False]
    warm = make()
    _warm_all(warm)
    (warm_row,) = list(warm.query(sql))
    assert _residency(scans)[-1] is True
    total = 0.0
    for r in ROWS:
        if r[0] % 3 != 1:
            total += r[3]
    assert cold_row[0] == warm_row[0] == total
    assert cold_row == warm_row


# ----------------------------------------------------------------------
# Map-jumped projection columns: one acquisition per stride.
# ----------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Positioned reads (their byte ranges) and ``convert_span`` calls
    (their field counts), in order."""
    seen = {"reads": [], "converts": []}
    read_range = RawFileReader.read_range
    convert_span = raw_scan_mod.convert_span

    def counting_read(self, start, end):
        seen["reads"].append((start, end))
        return read_range(self, start, end)

    def counting_convert(cbuf, starts, *args, **kwargs):
        seen["converts"].append(len(starts))
        return convert_span(cbuf, starts, *args, **kwargs)

    monkeypatch.setattr(RawFileReader, "read_range", counting_read)
    monkeypatch.setattr(raw_scan_mod, "convert_span", counting_convert)
    return seen


def _chunk_jumped(scan, attr):
    return any(attr in seg.chunk_hits for seg in scan.plan.segments)


def test_jumped_column_packs_per_stride(make, scans):
    eng = make()
    _warm_jumped_c(eng)
    scan, batches = _scan(eng, ["a", "c"], "a % 3 = 0")
    assert scan.plan.resident and _chunk_jumped(scan, 2)
    expected = [r[0] for r in ROWS if r[0] % 3 == 0]
    assert _column(batches, "a") == expected
    assert _column(batches, "c") == [f"r{a}" for a in expected]
    # The same batches as when ``c`` is held by the cache.
    assert [b.num_rows for b in batches] == [6, 10, 16, 6, 16, 13]


def test_jumped_column_is_read_and_converted_once_per_stride(
    make, scans, calls
):
    eng = make()
    _warm_jumped_c(eng)
    calls["reads"].clear()
    calls["converts"].clear()
    scan, __ = _scan(eng, ["a", "c"], "a % 3 = 0")
    assert scan.plan.resident and _chunk_jumped(scan, 2)
    # Four strides, each with survivors: one read from its first
    # survivor to its last and one conversion of its survivors each —
    # not one per window (13 of them).
    assert len(calls["reads"]) == 4
    assert calls["converts"] == [6, 10, 22, 29]
    # Zero survivors: no read and no conversion at all.
    calls["reads"].clear()
    calls["converts"].clear()
    _scan(eng, ["a", "c"], "a < 0 OR a % 100 = 1")
    assert len(calls["reads"]) == len(calls["converts"]) == 2


#: Stride [48, 112) holds windows [48, 64) and [64, 80), which qualify
#: whole and touch, [80, 96) which does not, and [96, 112) which does.
WHOLE_WINDOWS = "(a >= 48 AND a < 80) OR (a >= 96 AND a < 112) OR a % 5 = 0"


def _small_sample_stats(eng):
    """Give ``t`` a fresh statistics store with a small sample, so
    which rows a scan observes shows in the sample."""
    store = StatisticsStore(sample_size=8)
    eng.table_state("t").statistics = store
    return store


def test_adjacent_whole_windows_are_learned_as_one_run(
    make, scans, monkeypatch
):
    eng = make()
    _warm_jumped_c(eng)
    store = _small_sample_stats(eng)
    observed = []
    observe = store.observe

    def spy(name, vector, row_from):
        observed.append((name, row_from, row_from + len(vector)))
        observe(name, vector, row_from)

    monkeypatch.setattr(store, "observe", spy)
    scan, __ = _scan(eng, ["a", "c"], WHOLE_WINDOWS)
    assert scan.plan.resident and _chunk_jumped(scan, 2)
    assert (48, 112) in list(scan.plan.strides())
    # [48, 64) and [64, 80) touch: one run, one call; [96, 112) is
    # another.
    assert observed == [("c", 48, 80), ("c", 96, 112)]
    fresh = StatisticsStore(sample_size=8)
    for w0, w1 in ((48, 80), (96, 112)):
        fresh.observe("c", ColumnVector.from_texts(_texts(w0, w1)), w0)
    got, want = store.get("c"), fresh.get("c")
    assert got.rows_seen == want.rows_seen == 48
    assert (got.min_value, got.max_value) == (want.min_value, want.max_value)
    assert got.sample.tolist() == want.sample.tolist()
    # The run does not start at row 0 and breaks, so nothing is cached.
    assert eng.table_state("t").cache.peek(2) is None


def _texts(lo, hi):
    return [f"r{i}" for i in range(lo, hi)]


def test_whole_window_prefix_is_cached_as_converted_alone(make, scans):
    eng = make()
    _warm_jumped_c(eng)
    result = eng.query("SELECT a, c FROM t WHERE a < 40 OR a % 3 = 0")
    assert scans[-1].plan.resident and _chunk_jumped(scans[-1], 2)
    expected = [a for a in range(N) if a < 40 or a % 3 == 0]
    assert list(result) == [(a, f"r{a}") for a in expected]
    # Windows [0, 16) and [16, 32) qualify whole; [32, 48), in the same
    # stride, does not: a 32-row prefix holding only its own strings,
    # charged like the same rows converted alone.
    entry = eng.table_state("t").cache.peek(2)
    assert entry is not None and entry.rows == 32
    alone = ColumnVector.from_texts(_texts(0, 32))
    assert entry.vector.to_pylist() == _texts(0, 32)
    assert entry.vector.dictionary.tolist() == alone.dictionary.tolist()
    assert entry.nbytes == alone.nbytes()


def test_cache_prefix_ends_inside_a_stride(make, scans, calls):
    eng = make()
    _warm_jumped_c(eng)
    eng.query("SELECT a, c FROM t WHERE a < 40 OR a % 3 = 0")
    assert eng.table_state("t").cache.peek(2).rows == 32
    calls["reads"].clear()
    calls["converts"].clear()
    scan, batches = _scan(eng, ["a", "c"], "a % 3 = 0")
    assert scan.plan.resident
    # ``c`` is cached up to row 32 and map-jumped after it: the segment
    # boundary falls inside stride [16, 48).
    assert [(s.start, s.end) for s in scan.plan.segments] == [(0, 32), (32, N)]
    assert (16, 48) in list(scan.plan.strides())
    expected = [a for a in range(N) if a % 3 == 0]
    assert _column(batches, "a") == expected
    assert _column(batches, "c") == [f"r{a}" for a in expected]
    assert [b.num_rows for b in batches] == [6, 10, 16, 6, 16, 13]
    # Strides [16, 48), [48, 112) and [112, 200) read the map-jumped
    # rows; [16, 48) only its survivors past row 32.
    assert calls["converts"] == [5, 22, 29]


def _learned(eng):
    """What ``c`` taught the engine: its cache entry and statistics."""
    state = eng.table_state("t")
    entry = state.cache.peek(2)
    stats = state.statistics.get("c")
    return (
        None if entry is None else entry.vector.to_pylist(),
        None if entry is None else entry.nbytes,
        stats.rows_seen,
        stats.sample.tolist(),
    )


def test_tiny_read_bound_splits_reads_at_window_edges(
    make, scans, calls, monkeypatch
):
    answers, learned = [], []
    for bound in (raw_scan_mod.MAX_READ_BYTES, 1):
        monkeypatch.setattr(raw_scan_mod, "MAX_READ_BYTES", bound)
        eng = make()
        _warm_jumped_c(eng)
        _small_sample_stats(eng)
        calls["reads"].clear()
        # A 32-row prefix of ``c`` is cached, then whole windows past it
        # are observed.
        for where in ("a < 40 OR a % 5 = 0", WHOLE_WINDOWS):
            result = eng.query(f"SELECT a, c FROM t WHERE {where}")
            answers.append(list(result))
            assert scans[-1].plan.resident and _chunk_jumped(scans[-1], 2)
        learned.append(_learned(eng))
        reads = list(calls["reads"])
    # With a 1-byte bound each window with survivors is its own read:
    # 13 for the first query, 11 past the cached prefix for the second.
    assert len(reads) == 13 + 11
    bounds = eng.table_state("t").positional_map.line_bounds
    for start, end in reads:
        first = int(np.searchsorted(bounds, start, "right")) - 1
        last = int(np.searchsorted(bounds, end - 1, "right")) - 1
        assert first // B == last // B
    assert answers[:2] == answers[2:]
    assert learned[0] == learned[1]
    assert learned[0][0] == _texts(0, 32)


# ----------------------------------------------------------------------
# Rent-or-buy loading (repro.core.scan_plan): with the columnstore on,
# the jumps that read ``c`` for survivors pay rent, and the first scan
# planned with the rent at the price of ``c``'s rows loads it.
# ----------------------------------------------------------------------


def _vp(tmp_path):
    return {"vp_enabled": True, "vp_dir": str(tmp_path / "vp")}


def _price(state):
    bounds = state.positional_map.line_bounds
    return int(bounds[-1] - bounds[0])


def _rent(state, plan, keep):
    """What ``plan``'s jumps read: each stride's first survivor through
    its last."""
    bounds = state.positional_map.line_bounds
    rent = 0
    for s0, s1 in plan.strides():
        rows = [r for r in range(s0, s1) if keep(r)]
        if rows:
            rent += int(bounds[rows[-1] + 1] - bounds[rows[0]])
    return rent


def test_the_load_waits_until_the_rent_reaches_the_price(
    make, scans, tmp_path
):
    eng = make(**_vp(tmp_path))
    _warm_jumped_c(eng)
    state = eng.table_state("t")
    expected = [a for a in range(N) if a % 3 == 0]
    paid = 0
    while paid < _price(state):
        scan, batches = _scan(eng, ["a", "c"], "a % 3 = 0")
        assert scan.plan.load_attrs == () and _chunk_jumped(scan, 2)
        assert _column(batches, "c") == [f"r{a}" for a in expected]
        paid += _rent(state, scan.plan, lambda r: r % 3 == 0)
        assert state.load_rent[2] == paid
        assert state.columnstore.coverage_rows(2) == 0
    scan, batches = _scan(eng, ["a", "c"], "a % 3 = 0")
    assert scan.plan.load_attrs == (2,)
    # The same answer, in the same batches.
    assert _column(batches, "c") == [f"r{a}" for a in expected]
    assert [b.num_rows for b in batches] == [6, 10, 16, 6, 16, 13]
    assert state.columnstore.coverage_rows(2) == N
    assert state.cache.peek(2) is None and state.load_rent == {}
    # Read from the columnstore since: no jump, no rent.
    scan, __ = _scan(eng, ["a", "c"], "a % 3 = 0")
    assert scan.plan.load_attrs == () and not _chunk_jumped(scan, 2)
    assert state.load_rent == {}


def test_point_lookups_pay_one_row_each_and_never_load(
    make, scans, tmp_path
):
    eng = make(**_vp(tmp_path))
    _warm_jumped_c(eng)
    state = eng.table_state("t")
    bounds = state.positional_map.line_bounds
    keys = range(0, N, 2)
    for k in keys:
        scan, batches = _scan(eng, ["a", "c"], f"a = {k}")
        assert scan.plan.load_attrs == ()
        assert _column(batches, "c") == [f"r{k}"]
    assert state.load_rent == {
        2: sum(int(bounds[k + 1] - bounds[k]) for k in keys)
    }
    assert state.load_rent[2] < _price(state)
    assert state.columnstore.coverage_rows(2) == 0


def test_a_loading_scan_skips_no_window(make, scans, tmp_path):
    eng = make(**_vp(tmp_path))
    _warm_jumped_c(eng)
    state = eng.table_state("t")
    state.pay_rent(2, _price(state))
    scan, batches = _scan(eng, ["a", "c"], "a < 20")
    assert scan.plan.load_attrs == (2,) and scan.plan.runs == ((0, N),)
    assert _column(batches, "c") == [f"r{a}" for a in range(20)]
    assert state.columnstore.coverage_rows(2) == N
    # Loaded: the synopsis rules out every window past the second.
    scan, batches = _scan(eng, ["a", "c"], "a < 20")
    assert scan.plan.runs == ((0, 2 * B),)
    assert _column(batches, "c") == [f"r{a}" for a in range(20)]


def test_without_the_columnstore_nothing_pays_rent(make, scans):
    eng = make()
    _warm_jumped_c(eng)
    state = eng.table_state("t")
    for _ in range(4):
        scan, __ = _scan(eng, ["a", "c"], "a % 3 = 0")
        assert scan.plan.load_attrs == () and _chunk_jumped(scan, 2)
    assert state.load_rent == {} and state.cache.peek(2) is None
