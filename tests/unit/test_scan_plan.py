"""The scan plan: what one scan decides before it reads a row.

Each test builds a table state by running queries, then plans a bare
scan over it and pins the plan — segments and their pinned sources,
residency, the kept window runs and the combination chunk.
"""

import pytest

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
from repro.sql.parser import parse_select

SCHEMA = TableSchema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.INTEGER),
        Column("c", DataType.TEXT),
    ]
)
N = 200
B = 16


def _rows(lo, hi):
    return [(i, i * 3, f"r{i}") for i in range(lo, hi)]


@pytest.fixture
def make(tmp_path):
    engines = []

    def factory(**config):
        path = tmp_path / "t.csv"
        if not path.exists():
            write_csv(path, _rows(0, N), SCHEMA)
        eng = PostgresRaw(PostgresRawConfig(batch_size=B, **config))
        eng.register_csv("t", path, SCHEMA)
        engines.append(eng)
        return eng

    yield factory
    for eng in engines:
        eng.close()


def _plan(eng, columns, where=None, row_from=0):
    """Run a bare scan over ``t``'s adaptive state; return its plan."""
    predicate = None
    if where is not None:
        predicate = parse_select(f"SELECT a FROM t WHERE {where}").where
    scan = RawScan(
        eng.table_state("t"),
        QueryMetrics(),
        columns,
        predicate,
        row_from=row_from,
    )
    list(scan.execute())
    return scan.plan


def _sources(segment):
    """Per needed attribute: the tier kind the segment pinned, or
    ``"tokenize"``."""
    out = {a: "tokenize" for a in segment.tokenize_attrs}
    out.update({a: "map" for a in segment.chunk_hits})
    out.update(
        {a: type(tier).__name__ for a, (tier, __) in segment.resident.items()}
    )
    return out


def test_cold_scan(make):
    plan = _plan(make(), ["b", "c"], "a < 10")
    assert (plan.row_from, plan.row_to, plan.batch_size) == (0, N, B)
    (seg,) = plan.segments
    assert (seg.start, seg.end) == (0, N)
    assert _sources(seg) == {0: "tokenize", 1: "tokenize", 2: "tokenize"}
    assert plan.pred_attrs == (0,)
    assert (plan.proj_attrs, plan.resident) == ((1, 2), False)
    assert plan.runs == ((0, N),)
    assert plan.combination is None
    assert next(plan.strides()) == (0, B)
    assert len(list(plan.strides())) == -(-N // B)


def test_map_jump(make):
    eng = make(enable_cache=False)
    eng.query("SELECT a, c FROM t")
    plan = _plan(eng, ["c"])
    (seg,) = plan.segments
    assert _sources(seg) == {2: "map"}
    assert seg.chunk_hits[2].has_attr(2)
    assert (plan.pred_attrs, plan.proj_attrs, plan.resident) == (
        (),
        (2,),
        False,
    )
    # One needed attribute: nothing to combine.
    assert plan.combination is None


def test_combination_of_attributes_in_different_chunks(make):
    eng = make(enable_cache=False)
    eng.query("SELECT a FROM t")
    eng.query("SELECT c FROM t WHERE b > 0")
    plan = _plan(eng, ["a", "c"])
    (a, a_chunk), (c, c_chunk) = plan.combination
    assert (a, c) == (0, 2) and a_chunk is not c_chunk
    assert a_chunk.has_attr(0) and c_chunk.has_attr(2)
    assert a_chunk.rows == c_chunk.rows == N
    # Installed when the scan ended.
    assert eng.table_state("t").positional_map.peek((0, 2)) is not None


def test_cache_resident_predicate_column(make):
    eng = make()
    eng.query("SELECT a, b, c FROM t")
    plan = _plan(eng, ["a", "c"], "a % 3 = 0")
    (seg,) = plan.segments
    assert _sources(seg) == {0: "RawDataCache", 2: "RawDataCache"}
    assert (plan.proj_attrs, plan.resident) == ((2,), True)
    # A resident scan doubles its strides.
    assert list(plan.strides()) == [(0, 16), (16, 48), (48, 112), (112, N)]


def test_columnstore_resident_predicate_column(make, tmp_path):
    eng = make(vp_enabled=True, vp_min_accesses=1, vp_dir=str(tmp_path / "vp"))
    eng.query("SELECT a, b, c FROM t")
    eng.table_state("t").cache.invalidate()
    plan = _plan(eng, ["a", "b"], "a % 5 = 0")
    (seg,) = plan.segments
    assert _sources(seg) == {0: "VerticalStore", 1: "VerticalStore"}
    assert (plan.proj_attrs, plan.resident) == ((1,), True)


def test_post_append_scan_has_two_segments(make, tmp_path):
    eng = make()
    eng.query("SELECT a, c FROM t")
    append_csv_rows(tmp_path / "t.csv", _rows(N, N + 50), SCHEMA)
    eng.refresh()
    plan = _plan(eng, ["a", "c"], "a % 3 = 0")
    assert plan.row_to == N + 50
    head, tail = plan.segments
    assert (head.start, head.end, tail.start, tail.end) == (0, N, N, N + 50)
    assert _sources(head) == {0: "RawDataCache", 2: "RawDataCache"}
    assert _sources(tail) == {0: "tokenize", 2: "tokenize"}
    # The tail tokenizes, so the scan is not resident.
    assert (plan.proj_attrs, plan.resident) == ((2,), False)


def test_window_skip_runs_from_a_mid_table_row(make):
    eng = make()
    eng.query("SELECT a, b, c FROM t")
    plan = _plan(eng, ["a", "c"], "a IN (40, 150)", row_from=37)
    assert plan.row_from == 37
    (seg,) = plan.segments
    assert (seg.start, seg.end) == (37, N)
    # Windows are table-wide multiples of B: [32, 48) holds 40 and
    # [144, 160) holds 150; the run from row 37 starts mid-window.
    assert plan.runs == ((37, 48), (144, 160))
    assert list(plan.strides()) == [(37, 48), (144, 160)]


def test_every_window_ruled_out(make):
    eng = make()
    eng.query("SELECT a, c FROM t")
    plan = _plan(eng, ["c"], "a < 0")
    assert plan.runs == () and list(plan.strides()) == []


def test_count_star_needs_no_source(make):
    plan = _plan(make(), [])
    (seg,) = plan.segments
    assert _sources(seg) == {}
    assert plan.runs == ((0, N),)
