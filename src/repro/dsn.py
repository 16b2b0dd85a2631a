"""DSN parsing for the redesigned client entry point.

One string now names everything a client needs — single server or a
whole shard cluster::

    raw://127.0.0.1:5433/                       # one server
    raw://127.0.0.1:5433/?token=s3cret          # auth stub
    raw://h:6001,h:6002/?partition.t=id         # 2-shard cluster,
                                                # t hash-partitioned on id
    raw://h:6001,h:6002/?partition.t=ts:range:100|200
                                                # range bounds 100, 200

:func:`repro.connect` parses one of these and returns either a plain
:class:`repro.client.Connection` or a shard-aware
:class:`repro.sharding.ShardedConnectionPool`; a cluster's canonical
DSN comes from :meth:`repro.sharding.ShardCluster.dsn`.

Recognized query options: ``token``, ``timeout`` (seconds, a float
> 0), ``frame_bytes`` (an int >= ``MIN_FRAME_BYTES``),
``min_size``/``max_size`` (sharded pool sizing, ints) and any number
of ``partition.<table>=<key>[:<scheme>[:b1|b2|...]]``
entries describing how each table is split across the listed hosts
(scheme defaults to ``hash``; ``|``-separated bounds are only valid —
and then required — for ``range``).  Ports must lie in 1..65535; every
number is checked here, so junk fails as :class:`ProtocolError` before
any socket is opened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, quote, unquote, urlsplit

from .catalog.schema import PartitionSpec
from .errors import ProtocolError
from .server.protocol import DEFAULT_FRAME_BYTES, MIN_FRAME_BYTES

SCHEME = "raw"
DEFAULT_PORT = 5433


#: Integer options and the smallest value each accepts.
_INT_OPTIONS = {"frame_bytes": MIN_FRAME_BYTES, "min_size": 0, "max_size": 1}
_OPTION_KEYS = frozenset({"token", "timeout", *_INT_OPTIONS})


def _option_value(key: str, text: str) -> object:
    """One recognized option's typed value; :class:`ProtocolError` on
    junk."""
    if key == "token":
        return text
    try:
        value = float(text) if key == "timeout" else int(text)
    except ValueError:
        raise ProtocolError(
            f"DSN option {key}={text!r} is not a number"
        ) from None
    if key == "timeout":
        if not (math.isfinite(value) and value > 0):
            raise ProtocolError(f"DSN option timeout={text!r} must be > 0")
    elif value < _INT_OPTIONS[key]:
        raise ProtocolError(
            f"DSN option {key}={value} must be >= {_INT_OPTIONS[key]}"
        )
    return value


@dataclass
class ParsedDSN:
    """A parsed ``raw://`` DSN."""

    hosts: list[tuple[str, int]]
    options: dict[str, str] = field(default_factory=dict)
    partitions: dict[str, PartitionSpec] = field(default_factory=dict)

    @property
    def is_sharded(self) -> bool:
        return len(self.hosts) > 1


def _parse_bound(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return unquote(text)


def _parse_host(part: str) -> tuple[str, int]:
    part = part.strip()
    if not part:
        raise ProtocolError("empty host in DSN")
    if ":" not in part:
        return part, DEFAULT_PORT
    host, __, port_text = part.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = 0
    # getaddrinfo would silently wrap an out-of-range port mod 65536.
    if not host or not 1 <= port <= 65535:
        raise ProtocolError(f"bad port {port_text!r} in DSN host {part!r}")
    return host, port


def _parse_partition(
    table: str, value: str, shards: int
) -> PartitionSpec:
    fields_ = value.split(":")
    key = fields_[0]
    if not key:
        raise ProtocolError(f"partition.{table} needs a key column")
    scheme = fields_[1] if len(fields_) > 1 and fields_[1] else "hash"
    bounds: tuple = ()
    if len(fields_) > 2 and fields_[2]:
        bounds = tuple(_parse_bound(b) for b in fields_[2].split("|"))
    return PartitionSpec(key, scheme, shards, bounds)


def parse_dsn(dsn: str) -> ParsedDSN:
    """Parse a ``raw://`` DSN; raises :class:`ProtocolError` on junk."""
    split = urlsplit(dsn)
    if split.scheme != SCHEME:
        raise ProtocolError(
            f"DSN must start with {SCHEME!r}://, got {dsn!r}"
        )
    if not split.netloc:
        raise ProtocolError(f"DSN has no host: {dsn!r}")
    hosts = [_parse_host(p) for p in split.netloc.split(",")]
    options: dict[str, str] = {}
    partitions: dict[str, PartitionSpec] = {}
    for key, value in parse_qsl(split.query, keep_blank_values=True):
        if key.startswith("partition."):
            table = key[len("partition.") :]
            partitions[table] = _parse_partition(
                table, value, len(hosts)
            )
        elif key in _OPTION_KEYS:
            _option_value(key, value)  # validate; keep the text
            options[key] = value
        else:
            raise ProtocolError(f"unknown DSN option {key!r}")
    return ParsedDSN(hosts, options, partitions)


def format_dsn(
    hosts: list[tuple[str, int]],
    partitions: dict[str, PartitionSpec] | None = None,
    **options: object,
) -> str:
    """Render the canonical DSN for a host list + partition map."""
    netloc = ",".join(f"{h}:{p}" for h, p in hosts)
    params = []
    for key, value in sorted((options or {}).items()):
        if value is None:
            continue
        params.append(f"{key}={quote(str(value))}")
    for table, spec in sorted((partitions or {}).items()):
        value = f"{spec.key}:{spec.scheme}"
        if spec.bounds:
            value += ":" + "|".join(quote(str(b)) for b in spec.bounds)
        params.append(f"partition.{table}={value}")
    query = "&".join(params)
    return f"{SCHEME}://{netloc}/" + (f"?{query}" if query else "")


def connect(dsn: str):
    """Open a client for a DSN (the package-level entry point).

    A single-host DSN returns a :class:`repro.client.Connection`; a
    multi-host DSN returns a
    :class:`repro.sharding.ShardedConnectionPool` that scatters,
    routes and merges across the listed shard servers.
    """
    parsed = parse_dsn(dsn)
    opts = {
        key: _option_value(key, value)
        for key, value in parsed.options.items()
    }
    token = opts.get("token") or None
    timeout = opts.get("timeout")
    frame_bytes = opts.get("frame_bytes", DEFAULT_FRAME_BYTES)
    if not parsed.is_sharded:
        from .client import Connection

        host, port = parsed.hosts[0]
        return Connection(
            host,
            port,
            token=token,
            timeout=timeout,
            frame_bytes=frame_bytes,
        )
    from .sharding.client import ShardedConnectionPool

    return ShardedConnectionPool(
        parsed.hosts,
        parsed.partitions,
        token=token,
        timeout=timeout,
        frame_bytes=frame_bytes,
        min_size=opts.get("min_size", 1),
        max_size=opts.get("max_size", 4),
    )
