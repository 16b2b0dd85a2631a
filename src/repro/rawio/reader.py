"""Metered, positioned raw-file access.

File byte offsets are the engine's only address space: line bounds,
positional-map chunks and tokenizer output all name bytes of the raw
file, and :class:`RawFileReader` fetches exactly the byte ranges a scan
asks for (``os.pread`` on one descriptor per scan).  Every read charges
wall-clock time and volume to the ``io`` bucket of a
:class:`repro.core.metrics.QueryMetrics` — this is how the Figure 3
breakdown separates disk access from CPU work, and how the binary
cache's "no raw access needed" benefit becomes measurable: a fully
cache-covered query never constructs a reader.

The offsets a scan jumps to describe one version of the file.  The
reader remembers the ``(size, mtime_ns)`` it opened (or was told to
expect) and re-checks it after every read, so an external rewrite or
truncation under an open scan surfaces as
:class:`repro.errors.UpdateConflictError` — never as bytes of the new
file read at offsets of the old one.  (``pread``, not ``mmap``: a
mapping of a file that shrinks turns the next access into SIGBUS.)
"""

from __future__ import annotations

import os
from pathlib import Path

from ..core.metrics import BreakdownComponent, QueryMetrics
from ..errors import RawDataError, UpdateConflictError

#: ``(st_size, st_mtime_ns)`` — the identity of one version of a file.
FileStamp = tuple[int, int]


class RawFileReader:
    """Reads byte ranges of one raw file, charging I/O to query metrics.

    ``stamp`` is the file version the caller's offsets were learned
    from; without it the version found at open time is the reference.
    """

    def __init__(
        self,
        path: str | Path,
        metrics: QueryMetrics | None = None,
        stamp: FileStamp | None = None,
    ) -> None:
        self.path = Path(path)
        self.metrics = metrics
        try:
            self._fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            raise RawDataError(f"raw file not found: {self.path}") from None
        self.stamp = self._current_stamp()
        self.size = self.stamp[0]
        if stamp is not None and stamp != self.stamp:
            self.close()
            raise self._conflict("is not the version its offsets describe")

    def _current_stamp(self) -> FileStamp:
        st = os.fstat(self._fd)
        return st.st_size, st.st_mtime_ns

    def _conflict(self, what: str) -> UpdateConflictError:
        return UpdateConflictError(f"raw file {self.path} {what}")

    def read_range(self, start: int, end: int) -> bytes:
        """The bytes ``[start, end)``, all of them or a typed error."""
        if self.metrics is None:
            return self._pread(start, end)
        with self.metrics.time(BreakdownComponent.IO):
            data = self._pread(start, end)
        self.metrics.bytes_read += len(data)
        return data

    def _pread(self, start: int, end: int) -> bytes:
        want = max(end - start, 0)
        data = os.pread(self._fd, want, start)
        while len(data) < want:  # rare: one pread returns < 2 GiB
            more = os.pread(self._fd, want - len(data), start + len(data))
            if not more:
                break
            data += more
        # A short read means the file shrank; a moved stamp means what
        # was read may already be the rewritten content.
        if len(data) < want:
            raise self._conflict("shrank under an open scan")
        if self._current_stamp() != self.stamp:
            raise self._conflict("changed under an open scan")
        return data

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd >= 0:
            os.close(fd)

    def __enter__(self) -> "RawFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
