"""Standalone sharded cluster: ``python -m repro.sharding``.

Partitions the given raw files across N worker processes — each a
full engine + wire server over its shard — prints the cluster DSN for
:func:`repro.connect`, and serves until interrupted: Ctrl-C (SIGINT) or
SIGTERM stops the workers and exits with code 0.  ``make serve-sharded``
wraps the demo mode.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import tempfile
import time
from pathlib import Path

from ..config import DEFAULT_MEMORY_BUDGET, PostgresRawConfig
from .coordinator import ShardCluster


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sharding",
        description=(
            "Serve raw files from N shard worker processes behind "
            "one DSN."
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="number of worker processes (default 2)",
    )
    parser.add_argument(
        "--data", action="append", default=[], metavar="NAME=PATH:KEY",
        help="partition raw file PATH on column KEY and serve it as "
        "table NAME (repeatable)",
    )
    parser.add_argument(
        "--scheme", choices=("hash", "range"), default="hash",
        help="partitioning scheme (default hash)",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="generate and serve a demo table 't' partitioned on a0",
    )
    parser.add_argument(
        "--demo-rows", type=int, default=50_000,
        help="rows in the generated demo table (default 50000)",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=DEFAULT_MEMORY_BUDGET,
        help="byte budget for all adaptive state, divided evenly across "
        f"shards (default {DEFAULT_MEMORY_BUDGET})",
    )
    parser.add_argument(
        "--auth-token", default=None,
        help="require this token in every shard's HELLO handshake",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.data and not args.demo:
        build_parser().error("nothing to serve: pass --data and/or --demo")
    config = PostgresRawConfig(memory_budget=args.memory_budget)
    with contextlib.ExitStack() as stack:
        cluster = ShardCluster(
            args.shards, config, auth_token=args.auth_token
        )
        if args.demo:
            from ..rawio.generator import generate_csv, uniform_table_spec

            demo_dir = Path(
                stack.enter_context(tempfile.TemporaryDirectory())
            )
            demo_path = demo_dir / "t.csv"
            schema = generate_csv(
                demo_path,
                uniform_table_spec(
                    n_attrs=10, n_rows=args.demo_rows, width=8, seed=7
                ),
            )
            cluster.add_table(
                "t", demo_path, key="a0", schema=schema, scheme=args.scheme
            )
            print(f"demo table 't' ({args.demo_rows} rows) at {demo_path}")
        for entry in args.data:
            name, __, rest = entry.rpartition("=")
            path, __, key = rest.rpartition(":")
            if not name or not path or not key:
                build_parser().error(
                    f"--data needs NAME=PATH:KEY, got {entry!r}"
                )
            cluster.add_table(name, path, key=key, scheme=args.scheme)
            print(f"table {name!r} <- {path} (partitioned on {key!r})")
        stack.callback(cluster.stop)
        cluster.start()
        for i, (host, port) in enumerate(cluster.addresses):
            print(f"shard {i}: {host}:{port}")
        print(f"cluster DSN: {cluster.dsn()}")
        print("Ctrl-C to stop")
        # SIGTERM stops the cluster as Ctrl-C does (set after the workers
        # fork, so they keep the default action).
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
