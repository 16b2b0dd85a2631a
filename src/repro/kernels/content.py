"""One window of raw-file bytes, shared by everything that reads it.

All engine offsets are byte offsets into the raw file
(:mod:`repro.rawio.tokenizer` module docs).  A scan never holds "the
content" — it holds :class:`ContentBuffer` windows: the bytes of the
file range ``[base, end)`` it actually needs (the whole file on a cold
scan, an appended tail, the rows one batch selected).  Consumers pass
file offsets and the window subtracts ``base``; the sorted positions of
each separator byte it is asked about are cached per window, in file
coordinates, so the kernels' ``searchsorted`` calls need no rebasing.
"""

from __future__ import annotations

import numpy as np


class ContentBuffer:
    """The bytes ``[base, base + len(data))`` of one raw file."""

    __slots__ = ("data", "base", "_buf", "_positions")

    def __init__(self, data: bytes, base: int = 0) -> None:
        self.data = data
        self.base = base
        self._buf: np.ndarray | None = None
        self._positions: dict[str, np.ndarray] = {}

    def covers(self, start: int, end: int) -> bool:
        return self.base <= start and end <= self.base + len(self.data)

    @property
    def buf(self) -> np.ndarray:
        if self._buf is None:
            self._buf = np.frombuffer(self.data, dtype=np.uint8)
        return self._buf

    def byte_positions(self, ch: str) -> np.ndarray:
        """Sorted file offsets of every occurrence of an ASCII char."""
        cached = self._positions.get(ch)
        if cached is None:
            cached = np.flatnonzero(self.buf == ord(ch))
            if self.base:
                cached += self.base
            self._positions[ch] = cached
        return cached
