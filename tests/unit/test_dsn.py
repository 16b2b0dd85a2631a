"""The ``raw://`` DSN surface: parsing (including validation of every
port and numeric option), canonical rendering and the
:func:`repro.connect` entry point."""

from __future__ import annotations

import pytest

import repro
import repro.client
from repro import (
    PartitionSpec,
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
    generate_csv,
    uniform_table_spec,
)
from repro.dsn import DEFAULT_PORT, format_dsn, parse_dsn
from repro.errors import ProtocolError


# ----------------------------------------------------------------------
# Parsing.
# ----------------------------------------------------------------------


def test_parse_single_host():
    parsed = parse_dsn("raw://127.0.0.1:5433/")
    assert parsed.hosts == [("127.0.0.1", 5433)]
    assert not parsed.is_sharded
    assert parsed.options == {}
    assert parsed.partitions == {}


def test_parse_default_port():
    parsed = parse_dsn("raw://example.test/")
    assert parsed.hosts == [("example.test", DEFAULT_PORT)]


def test_parse_multi_host_with_options():
    parsed = parse_dsn(
        "raw://h1:6001,h2:6002/?token=s3cret&timeout=2.5&frame_bytes=65536"
    )
    assert parsed.hosts == [("h1", 6001), ("h2", 6002)]
    assert parsed.is_sharded
    assert parsed.options == {
        "token": "s3cret",
        "timeout": "2.5",
        "frame_bytes": "65536",
    }


def test_parse_partition_defaults_to_hash():
    parsed = parse_dsn("raw://h:1,h:2/?partition.t=id")
    spec = parsed.partitions["t"]
    assert spec.key == "id"
    assert spec.scheme == "hash"
    assert spec.shards == 2
    assert spec.bounds == ()


def test_parse_partition_range_bounds():
    parsed = parse_dsn(
        "raw://h:1,h:2,h:3/?partition.t=ts:range:2.5|10"
    )
    spec = parsed.partitions["t"]
    assert spec.scheme == "range"
    assert spec.shards == 3
    assert spec.bounds == (2.5, 10)


def test_parse_partition_text_bounds():
    parsed = parse_dsn("raw://h:1,h:2/?partition.t=name:range:m")
    assert parsed.partitions["t"].bounds == ("m",)


@pytest.mark.parametrize(
    "dsn",
    [
        "postgres://h:1/",  # wrong scheme
        "raw:///",  # no host
        "raw://h:notaport/",  # bad port
        "raw://h:1/?bogus=1",  # unknown option
        "raw://h:1,h:2/?partition.t=",  # partition without a key
        "raw://h:1,,h:2/",  # empty host in the list
    ],
)
def test_parse_rejects_junk(dsn):
    with pytest.raises(ProtocolError):
        parse_dsn(dsn)


@pytest.mark.parametrize(
    "dsn",
    [
        # getaddrinfo wraps ports mod 65536: 99999 would dial 34463.
        "raw://127.0.0.1:99999/",
        "raw://h:65536/",
        "raw://h:0/",
        "raw://h:-1/",
        "raw://h:1,h:70000/",
        "raw://:5433/",  # a port but no host
    ],
)
def test_parse_rejects_out_of_range_ports(dsn):
    with pytest.raises(ProtocolError, match="bad port"):
        parse_dsn(dsn)


def test_parse_accepts_port_bounds():
    parsed = parse_dsn("raw://h:1,h:65535/")
    assert parsed.hosts == [("h", 1), ("h", 65535)]


@pytest.mark.parametrize(
    "query",
    [
        "timeout=abc",
        "timeout=0",
        "timeout=-1.5",
        "timeout=nan",
        "timeout=inf",
        "frame_bytes=1k",
        "frame_bytes=2.5",
        "frame_bytes=512",  # below MIN_FRAME_BYTES
        "min_size=x",
        "min_size=-1",
        "max_size=",
        "max_size=0",
    ],
)
def test_parse_rejects_bad_numeric_options(query):
    """Junk numbers fail as ProtocolError, never a bare ValueError."""
    with pytest.raises(ProtocolError, match="DSN option"):
        parse_dsn(f"raw://h:1,h:2/?{query}")


def test_connect_rejects_bad_options_before_dialing():
    # Nothing listens on this port: a ProtocolError (not a connection
    # error) proves the DSN was refused before any socket was opened.
    with pytest.raises(ProtocolError):
        repro.connect("raw://127.0.0.1:1/?timeout=abc")
    with pytest.raises(ProtocolError):
        repro.connect("raw://127.0.0.1:99999/")


# ----------------------------------------------------------------------
# Rendering and round-trip.
# ----------------------------------------------------------------------


def test_format_dsn_round_trip():
    hosts = [("127.0.0.1", 6001), ("127.0.0.1", 6002)]
    partitions = {
        "t": PartitionSpec("id", "hash", 2),
        "u": PartitionSpec("ts", "range", 2, (100,)),
    }
    dsn = format_dsn(hosts, partitions, token="abc", timeout=1.5)
    parsed = parse_dsn(dsn)
    assert parsed.hosts == hosts
    assert parsed.options == {"token": "abc", "timeout": "1.5"}
    assert parsed.partitions["t"] == PartitionSpec("id", "hash", 2)
    assert parsed.partitions["u"] == PartitionSpec(
        "ts", "range", 2, (100,)
    )


def test_format_dsn_is_canonical():
    """Sorted options and partitions — same inputs, same string."""
    hosts = [("h", 1)]
    a = format_dsn(hosts, None, timeout=2, token="x")
    b = format_dsn(hosts, None, token="x", timeout=2)
    assert a == b
    assert format_dsn(hosts) == "raw://h:1/"
    assert format_dsn(hosts, None, token=None) == "raw://h:1/"


# ----------------------------------------------------------------------
# repro.connect against a live server.
# ----------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    path = tmp_path / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=4, n_rows=500, seed=3)
    )
    with PostgresRawService(PostgresRawConfig()) as service:
        service.register_csv("t", path, schema)
        server = RawServer(service, port=0).start()
        try:
            yield server
        finally:
            server.stop()


def test_connect_single_host_dsn(served):
    with repro.connect(f"raw://127.0.0.1:{served.port}/") as conn:
        result = conn.query("SELECT COUNT(*) AS n FROM t")
        assert result.scalar() == 500
    assert isinstance(conn, repro.client.Connection)


def test_connect_dsn_options_reach_the_connection(served):
    dsn = f"raw://127.0.0.1:{served.port}/?timeout=5&frame_bytes=4096"
    with repro.connect(dsn) as conn:
        assert conn._sock.gettimeout() == 5.0
        assert conn.query("SELECT COUNT(*) AS n FROM t").scalar() == 500


def test_connect_rejects_bad_dsn():
    with pytest.raises(ProtocolError):
        repro.connect("http://127.0.0.1:5433/")
