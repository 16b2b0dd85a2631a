"""The ``wire_mix`` server process: a RawServer the benchmark can steer.

Serves one CSV file as table ``t`` under the shared serving config and
then obeys one-line commands on stdin, answering each with one JSON
line on stdout:

``port``                 the bound TCP port
``stats``                adaptive state + this process's peak RSS
``tick``                 a ``speed.slowdown`` reading on this process's core
``trace on``             install the span wrappers (``spans.TABLE``)
``trace pause``          remove them, keep the spans recorded so far
``trace dump <path>``    write the recorded spans to ``path``
``stop``                 shut the server down and exit
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import (  # noqa: E402
    PostgresRawConfig,
    PostgresRawService,
    RawServer,
)

import datagen  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SERVING, adaptive_stats  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True)
    parser.add_argument("--vp-dir", required=True)
    args = parser.parse_args(argv)

    speed.pin(0)  # the client pins itself to the last CPU
    config = PostgresRawConfig(vp_dir=args.vp_dir, **SERVING)
    tracer = Tracer()
    with PostgresRawService(config) as service:
        service.register_csv("t", args.data, datagen.SCHEMA)
        with RawServer(service, port=0) as server:
            for line in sys.stdin:
                command = line.strip()
                reply: dict = {"ok": True}
                if command == "port":
                    reply = {"port": server.port}
                elif command == "stats":
                    reply = adaptive_stats(service)
                elif command == "tick":
                    reply = {"slowdown": speed.slowdown()}
                elif command == "trace on":
                    tracer.install()
                elif command == "trace pause":
                    tracer.uninstall()
                elif command.startswith("trace dump "):
                    tracer.write(command.removeprefix("trace dump "))
                elif command != "stop":
                    reply = {"ok": False, "error": f"unknown: {command!r}"}
                print(json.dumps(reply), flush=True)
                if command == "stop":
                    break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
