"""The scan pool: ordered fan-out of chunk tasks over workers.

Threads are the default backend — dispatch is cheap and I/O-bound scans
(plus GIL-free Python builds) overlap well.  The ``process`` backend
forks worker processes, so the CPU-bound tokenizing/parsing loops
escape the GIL (the OLA-RAW observation: in-situ engines need parallel
chunked raw access to be practical at scale).  Both run the same
chunk tasks: a worker reads and tokenizes the byte range of its rows;
no file content is handed to it.

Pools are **recycled across queries**: the underlying executor is
created lazily on the first parallel dispatch and kept alive until
:meth:`ScanPool.close` (the engine/service closes its pool on
``close()`` / context-manager exit).  Under a concurrent query stream
this amortizes thread/fork start-up cost over the whole stream instead
of paying it per scan — and one engine-wide pool bounds total scan
parallelism at ``scan_workers`` no matter how many queries are in
flight.  ``Executor.map`` is thread-safe, so concurrent queries may
dispatch to the same pool; each dispatch's results keep task order.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Iterable, Iterator, TypeVar

from ..errors import ExecutionError

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def _process_context():
    """Prefer fork (cheap, no re-import) where the platform offers it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ScanPool:
    """Run chunk tasks concurrently, returning results in task order."""

    def __init__(self, workers: int, backend: str = "thread") -> None:
        if workers < 1:
            raise ExecutionError(f"scan pool needs >= 1 worker, got {workers}")
        if backend not in ("thread", "process"):
            raise ExecutionError(f"unknown scan pool backend {backend!r}")
        self.workers = workers
        self.backend = backend
        self._executor: Executor | None = None
        self._lock = threading.Lock()
        self._closed = False
        self.dispatches = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether a recycled executor currently exists."""
        return self._executor is not None

    def _ensure_executor(self) -> Executor:
        with self._lock:
            if self._closed:
                raise ExecutionError("scan pool is closed")
            if self._executor is None:
                if self.backend == "process":
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=_process_context(),
                    )
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-scan",
                    )
            return self._executor

    def close(self) -> None:
        """Shut the recycled executor down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ScanPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: engines dropped without close()
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def run_streaming(
        self,
        fn: Callable[[_Task], _Result],
        tasks: Iterable[_Task],
        window: int,
    ) -> Iterator[_Result]:
        """Yield results in task order with a bounded in-flight window.

        At most ``window`` tasks exist downstream of the ``tasks``
        iterator at any moment — dispatched to workers or completed but
        not yet consumed — so peak memory is O(window x result) instead
        of O(all results).  ``tasks`` may be a lazy generator; it is
        advanced only as the window frees up.

        A worker exception propagates to the consumer at the failed
        task's position; closing the returned generator cancels every
        not-yet-started task.
        """
        it = iter(tasks)
        window = max(int(window), 1)
        first = next(it, None)
        if first is None:
            return
        self.dispatches += 1
        lookahead = next(it, None)
        if lookahead is None:
            # Single chunk: run inline — no executor start-up for
            # degenerate dispatches.
            yield fn(first)
            return
        executor = self._ensure_executor()
        pending: deque = deque()
        pending.append(executor.submit(fn, first))
        try:
            # `lookahead` holds the one task pulled but not yet
            # submitted, so exactly min(window, remaining) results are
            # ever downstream of the task iterator — the popped result
            # counts against the window until the consumer returns from
            # its yield.
            while len(pending) < window and lookahead is not None:
                pending.append(executor.submit(fn, lookahead))
                lookahead = next(it, None)
            while pending:
                result = pending.popleft().result()
                yield result
                del result  # consumed; its window slot is free again
                if lookahead is not None:
                    pending.append(executor.submit(fn, lookahead))
                    lookahead = next(it, None)
        finally:
            for future in pending:
                future.cancel()
