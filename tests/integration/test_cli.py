"""The two standalone entry points, run as real subprocesses.

``python -m repro.server`` and ``python -m repro.sharding`` each boot
over a generated demo table, announce where they listen, answer a
count over the announced address, and shut down cleanly on SIGTERM —
and the server on Ctrl-C too.  SIGTERM is what a service manager sends,
and unlike SIGINT it reaches the child whatever the test runner's own
disposition: a shell starts a background job with SIGINT ignored, and
the child inherits that.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

DEMO_ROWS = 2_000
DEMO = ("--demo", "--demo-rows", str(DEMO_ROWS))
START_TIMEOUT_S = 60.0
SRC = Path(repro.__file__).resolve().parent.parent


@pytest.fixture
def run_module():
    """Start ``python -m <module> <args>`` with line-buffered output;
    every process is killed at teardown if it is still running."""
    procs = []

    def start(*args: str, preexec_fn=None) -> subprocess.Popen:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            preexec_fn=preexec_fn,
        )
        procs.append(proc)
        return proc

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def read_until(proc: subprocess.Popen, prefix: str) -> str:
    """The first output line containing ``prefix``; the process is
    killed if it does not print one within ``START_TIMEOUT_S``."""
    watchdog = threading.Timer(START_TIMEOUT_S, proc.kill)
    watchdog.start()
    seen = []
    try:
        for line in proc.stdout:
            seen.append(line)
            if prefix in line:
                return line.strip()
    finally:
        watchdog.cancel()
    raise AssertionError(f"no {prefix!r} line in output:\n{''.join(seen)}")


def interrupt(proc: subprocess.Popen, signum=signal.SIGTERM) -> int:
    proc.send_signal(signum)
    return proc.wait(timeout=30)


def serve_demo(run_module, **start) -> subprocess.Popen:
    """A demo server that has answered one count."""
    proc = run_module("repro.server", *DEMO, "--port", "0", **start)
    line = read_until(proc, "listening on ")
    address = line.split("listening on ", 1)[1].split()[0]
    with repro.connect(f"raw://{address}/") as conn:
        assert conn.query("SELECT COUNT(*) FROM t").scalar() == DEMO_ROWS
    return proc


def test_server_cli_serves_demo_table(run_module):
    assert interrupt(serve_demo(run_module)) == 0


def test_server_cli_stops_on_ctrl_c(run_module):
    # SIGINT at its default disposition in the child, whatever the
    # runner's, so Python turns it into KeyboardInterrupt.
    proc = serve_demo(
        run_module,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    assert interrupt(proc, signal.SIGINT) == 0


def test_sharding_cli_serves_demo_table(run_module):
    proc = run_module(
        "repro.sharding", *DEMO, "--shards", "2", "--scheme", "range"
    )
    dsn = read_until(proc, "cluster DSN: ").split("cluster DSN: ", 1)[1]
    assert "partition.t=a0:range:" in dsn
    with repro.connect(dsn) as client:
        assert client.query("SELECT COUNT(*) FROM t").scalar() == DEMO_ROWS
    assert interrupt(proc) == 0
