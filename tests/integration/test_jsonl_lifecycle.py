"""The full adaptive lifecycle over a JSON-lines table.

Cold scan, warm positional-map scan, streaming cursors, wire serving,
sniffed registration, appends with invalidation, and the monitor/EXPLAIN
surfaces — everything the CSV path has, driven through a JSONL source.
"""

import pytest

import repro.client
from repro import (
    Column,
    DataType,
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
    ServiceError,
    TableSchema,
    append_jsonl_rows,
    write_jsonl,
)

SCHEMA = TableSchema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.TEXT),
        Column("c", DataType.FLOAT),
    ]
)

ROWS = [
    (i, f'v"{i}", with json: {{}}' if i % 7 else None, i / 4.0)
    for i in range(300)
]

SQL = "SELECT a, b, c FROM t WHERE a < 150"
EXPECTED = [r for r in ROWS if r[0] < 150]


@pytest.fixture
def jsonl_path(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, ROWS, SCHEMA)
    return path


def test_cold_then_warm_map_scan(jsonl_path):
    with PostgresRawService(PostgresRawConfig(batch_size=32)) as service:
        service.register_jsonl("t", jsonl_path, SCHEMA)
        cold = service.query(SQL)
        assert cold.rows == EXPECTED
        assert cold.metrics.tokenizing_seconds > 0
        state = service.table_state("t")
        # One cold pass warms the map for every attribute (JSONL
        # tokenizes full-width).
        assert state.positional_map.n_rows == len(ROWS)
        warm = service.query(SQL)
        assert warm.rows == EXPECTED


def test_sniffed_registration(jsonl_path, tmp_path):
    with PostgresRawService() as service:
        # No format declared: sniffed from the file; no schema either.
        entry = service.register_table("t", jsonl_path)
        assert entry.format == "jsonl"
        assert [c.name for c in entry.schema.columns] == ["a", "b", "c"]
        assert service.query("SELECT a FROM t WHERE a = 3").rows == [(3,)]
        # Declaring a CSV dialect for a JSONL table is an error.
        from repro import CsvDialect

        with pytest.raises(ServiceError):
            service.register_table(
                "t2", jsonl_path, SCHEMA, CsvDialect(), format="jsonl"
            )


def test_explain_tags_format(jsonl_path):
    with PostgresRawService() as service:
        service.register_jsonl("t", jsonl_path, SCHEMA)
        assert "t[jsonl]" in service.explain(SQL)


def test_streaming_cursor(jsonl_path):
    config = PostgresRawConfig(batch_size=16)
    with PostgresRawService(config) as service:
        service.register_jsonl("t", jsonl_path, SCHEMA)
        session = service.session()
        with session.cursor(SQL) as cursor:
            rows = list(cursor)
        assert rows == EXPECTED


def test_wire_serving(jsonl_path):
    config = PostgresRawConfig(batch_size=64)
    with PostgresRawService(config) as service:
        service.register_jsonl("t", jsonl_path, SCHEMA)
        reference = service.query(SQL).rows
        server = RawServer(service, port=0).start()
        try:
            with repro.client.Connection("127.0.0.1", server.port) as conn:
                assert conn.query(SQL).rows == reference
        finally:
            server.stop()


def test_append_detection_and_reconcile(jsonl_path):
    with PostgresRawService() as service:
        service.register_jsonl("t", jsonl_path, SCHEMA)
        assert service.query(SQL).rows == EXPECTED
        extra = [(1000 + i, "new", None) for i in range(5)]
        append_jsonl_rows(jsonl_path, extra, SCHEMA)
        service.refresh("t")
        got = service.query("SELECT a, b, c FROM t WHERE a >= 1000").rows
        assert got == extra
        assert (
            service.query("SELECT a FROM t WHERE a >= 0").rows
            == [(r[0],) for r in ROWS] + [(r[0],) for r in extra]
        )


def test_jsonl_vertical_persistence(jsonl_path, tmp_path):
    config = PostgresRawConfig(
        memory_budget=50_000_000,
        vp_enabled=True,
        vp_min_accesses=2,
        vp_dir=str(tmp_path / "vp"),
    )
    with PostgresRawService(config) as service:
        service.register_jsonl("t", jsonl_path, SCHEMA)
        for _ in range(3):
            assert service.query("SELECT a FROM t WHERE a >= 0").rows == [
                (r[0],) for r in ROWS
            ]
        registry = service.telemetry.registry
        assert registry.counter("vp_promotions_total").value >= 1
        rows = service.governor.residency()
        cs = [r for r in rows if r["kind"] == "columnstore"]
        assert cs and cs[0]["format"] == "jsonl"
        assert "-- vp: served from columnstore" in service.explain(
            "SELECT a FROM t WHERE a >= 0"
        )


def test_malformed_record_raises(tmp_path):
    from repro import RawDataError

    path = tmp_path / "bad.jsonl"
    path.write_text('{"a": 1, "b": "x", "c": 0.5}\n{"a": 2, "b": "y"}\n')
    with PostgresRawService() as service:
        service.register_jsonl("t", path, SCHEMA)
        with pytest.raises(RawDataError, match="missing key"):
            service.query(SQL)
