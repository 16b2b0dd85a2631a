"""Whole-column selection over resident columns.

A scan whose predicate columns all come from the cache or the
columnstore, with nothing left to tokenize, evaluates its predicate
once per stride: the first stride is the first batch, each later one
doubles.  These tests pin what that may and may not change: the first
batch, row order, what the cache and statistics learn, bytes read and
the work a tokenizing scan does.
"""

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
from repro.core.metrics import QueryMetrics
from repro.core.raw_scan import RawScan
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
    eng = make(vp_enabled=True, vp_min_accesses=1, vp_dir=str(tmp_path / "vp"))
    _warm_all(eng)
    state = eng.table_state("t")
    state.cache.invalidate()  # the columnstore is now the only tier
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
