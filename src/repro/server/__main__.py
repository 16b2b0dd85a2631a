"""Standalone wire-protocol server: ``python -m repro.server``.

Registers one or more raw CSV files (or a generated demo table) on a
fresh :class:`repro.service.PostgresRawService` and serves them until
interrupted.  ``make serve`` wraps the demo mode.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import tempfile
from pathlib import Path

from ..config import DEFAULT_MEMORY_BUDGET, PostgresRawConfig
from ..service.service import PostgresRawService
from .server import RawServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve raw CSV files over the repro wire protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=5433,
        help="TCP port; 0 picks an ephemeral port (default 5433)",
    )
    parser.add_argument(
        "--data", action="append", default=[], metavar="NAME=PATH",
        help="register raw CSV PATH as table NAME (repeatable); "
        "a bare PATH uses the file's stem as the table name",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="generate and serve a demo table 't' (10 attrs x 50k rows)",
    )
    parser.add_argument(
        "--demo-rows", type=int, default=50_000,
        help="rows in the generated demo table (default 50000)",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=DEFAULT_MEMORY_BUDGET,
        help="byte budget for all adaptive state "
        f"(default {DEFAULT_MEMORY_BUDGET})",
    )
    parser.add_argument(
        "--auth-token", default=None,
        help="require this token in the HELLO handshake",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.data and not args.demo:
        build_parser().error("nothing to serve: pass --data and/or --demo")
    config = PostgresRawConfig(memory_budget=args.memory_budget)
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(PostgresRawService(config))
        if args.demo:
            from ..rawio.generator import generate_csv, uniform_table_spec

            demo_dir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            demo_path = demo_dir / "t.csv"
            schema = generate_csv(
                demo_path,
                uniform_table_spec(
                    n_attrs=10, n_rows=args.demo_rows, width=8, seed=7
                ),
            )
            service.register_csv("t", demo_path, schema)
            print(f"demo table 't' ({args.demo_rows} rows) at {demo_path}")
        for spec in args.data:
            name, _, path = spec.rpartition("=")
            if not name:
                name = Path(path).stem
            service.register_csv(name, path)
            print(f"table {name!r} <- {path}")
        server = RawServer(
            service, host=args.host, port=args.port, auth_token=args.auth_token
        )
        try:
            asyncio.run(_serve(server))
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


async def _serve(server: RawServer) -> None:
    await server.start_async()
    print(
        f"repro wire server listening on {server.host}:{server.port} "
        "(Ctrl-C to stop)"
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
        pass
    finally:
        await server.aclose()


if __name__ == "__main__":
    raise SystemExit(main())
