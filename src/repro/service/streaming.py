"""The bounded batch handoff between a producing scan and a cursor.

A cursor whose plan scans a raw file has a dedicated producer thread
that pulls the plan's batch generator (holding the scheduler slot and
the per-table locks); the client consumes through a
:class:`repro.executor.result.Cursor`.  :class:`BatchChannel` is the
pipe between them.  Nothing else needs a pipe: a statement the
service drains itself (``query()`` / ``execute()``) pulls its plan on
the caller's thread, and a cursor over a plan that scans nothing — a
level MV hit, a FROM-less SELECT — is produced inline before it is
handed out.  The channel is:

* **Bounded** — at most ``capacity`` batches sit in the channel, so the
  producer runs only that far ahead of the consumer and an open cursor
  holds O(capacity x batch) memory no matter how large the result is.
* **Flow-controlled with a TTL** — when the channel is full the
  producer blocks; if the consumer makes no room for ``ttl_s`` seconds
  the producer abandons the query (:class:`CursorTimeoutError` raised
  at the producer, delivered to the consumer after the already-queued
  batches), so a forgotten cursor cannot pin shared table locks
  forever.
* **Ordered shutdown** — the consumer closing its side
  (:meth:`BatchChannel.close`, reached via ``Cursor.close()``) unblocks
  the producer, whose scan then finalizes exactly like a serial scan
  abandoned by a ``LIMIT``: everything learned so far is still
  harvested and installed.

The lock-lifetime contract this enforces: a streaming query's shared
(or exclusive) table locks are held while the scan *produces* — which,
because production is flow-controlled by this bounded channel, lasts
until the cursor is exhausted or closed (the producer is never more
than ``capacity`` batches ahead), bounded by ``cursor_ttl_s``.  An
inline cursor holds no lock at all: its locks were released before it
was returned.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterator

from ..batch import Batch
from ..errors import (
    CursorClosedError,
    CursorInvalidError,
    CursorTimeoutError,
    fresh_copy,
)


class BatchChannel:
    """A bounded, closable SPSC queue of result batches."""

    def __init__(self, capacity: int, ttl_s: float | None) -> None:
        self.capacity = max(int(capacity), 1)
        self.ttl_s = ttl_s
        self._cond = threading.Condition()
        self._items: deque[Batch] = deque()
        self._done = False
        self._error: BaseException | None = None
        self._closed = False  # consumer hung up (or was force-closed)
        self._closed_by_consumer = False
        self.batches_through = 0
        self.peak_depth = 0

    # ------------------------------------------------------------------
    # Producer side.
    # ------------------------------------------------------------------

    def put(self, batch: Batch) -> bool:
        """Enqueue one batch; blocks while the channel is full.

        Returns ``False`` when the consumer has closed its side (the
        producer should stop producing).  Raises
        :class:`CursorTimeoutError` when the consumer makes no room for
        ``ttl_s`` seconds.
        """
        with self._cond:
            deadline = (
                None if self.ttl_s is None else time.monotonic() + self.ttl_s
            )
            while len(self._items) >= self.capacity and not self._closed:
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        raise CursorTimeoutError(
                            "cursor consumer made no room for "
                            f"{self.ttl_s:.1f}s (cursor_ttl_s); abandoning "
                            "the producing scan"
                        )
                self._cond.wait(timeout)
            if self._closed:
                return False
            self._items.append(batch)
            self.batches_through += 1
            self.peak_depth = max(self.peak_depth, len(self._items))
            self._cond.notify_all()
            return True

    def finish(self, error: BaseException | None = None) -> None:
        """Producer is done (normally or with ``error``)."""
        with self._cond:
            self._done = True
            if error is not None and self._error is None:
                self._error = error
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Consumer side.
    # ------------------------------------------------------------------

    def get(self) -> Batch:
        """Next batch; raises ``StopIteration`` when the producer is
        done (or its error, after the batches that preceded it)."""
        with self._cond:
            while not self._items and not self._done and not self._closed:
                self._cond.wait()
            if self._items:
                item = self._items.popleft()
                self._cond.notify_all()
                return item
            if self._done:
                if self._error is not None:
                    # A *fresh* instance per delivery: re-raising the
                    # stored object would hand every consumer retry the
                    # same exception, each raise mutating/chaining its
                    # __traceback__ across deliveries.  The original
                    # (with the producer-side traceback) rides along as
                    # the cause.
                    raise fresh_copy(self._error) from self._error
                raise StopIteration
            if self._closed_by_consumer:
                # The consumer itself hung up (Cursor.close or a broken
                # drain) and then asked for more: its own doing, not a
                # service shutdown.
                raise CursorClosedError(
                    "cursor channel was closed by its own consumer"
                )
            # Closed from a third party (service shutdown) while the
            # producer was still running.
            raise CursorInvalidError(
                "cursor force-closed (service shut down)"
            )

    def drain(self) -> "_ChannelBatches":
        """The consumer-side batch iterator.

        A plain iterator object, deliberately not a generator: its
        ``close()`` closes the channel (unblocking — and thereby
        stopping — the producer) even when iteration never started,
        which a generator's ``close()`` would silently skip.
        """
        return _ChannelBatches(self)

    def close(self, *, by_consumer: bool = True) -> None:
        """Hang up: drop queued batches, unblock the producer.

        ``by_consumer`` records *who* hung up, so a later ``get`` can
        tell a self-closed cursor (:class:`CursorClosedError`) from a
        third-party force-close such as service shutdown
        (:class:`CursorInvalidError`).  Consumer-close wins once set —
        a force-close racing a consumer that already hung up must not
        re-label the cursor's own action.
        """
        with self._cond:
            if not self._closed and by_consumer:
                self._closed_by_consumer = True
            self._closed = True
            self._items.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def timed_out(self) -> bool:
        return isinstance(self._error, CursorTimeoutError)


class _ChannelBatches:
    """Iterator over a channel's batches; closing always closes the
    channel, iteration started or not."""

    __slots__ = ("_channel",)

    def __init__(self, channel: BatchChannel) -> None:
        self._channel = channel

    def __iter__(self) -> Iterator[Batch]:
        return self

    def __next__(self) -> Batch:
        try:
            return self._channel.get()
        except BaseException:
            # End of stream or error: the channel is finished with —
            # mirror a generator's finally so the producer never stays
            # blocked against a consumer that stopped reading.
            self._channel.close()
            raise

    def close(self) -> None:
        self._channel.close()
