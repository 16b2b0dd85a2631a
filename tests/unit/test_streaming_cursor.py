"""The streaming building blocks in isolation: the lazy Cursor over a
batch iterator, and the bounded BatchChannel handoff between a producer
thread and a consumer."""

from __future__ import annotations

import threading
import time

import pytest

from repro import Batch, ColumnVector, Cursor, DataType
from repro.errors import (
    CursorClosedError,
    CursorInvalidError,
    CursorTimeoutError,
)
from repro.service.streaming import BatchChannel


def make_batch(start: int, n: int) -> Batch:
    return Batch(
        {
            "a": ColumnVector.from_pylist(
                DataType.INTEGER, list(range(start, start + n))
            ),
            "b": ColumnVector.from_pylist(
                DataType.INTEGER, [v * 10 for v in range(start, start + n)]
            ),
        }
    )


def make_batches(sizes: list[int]) -> list[Batch]:
    batches, start = [], 0
    for n in sizes:
        batches.append(make_batch(start, n))
        start += n
    return batches


def make_cursor(sizes: list[int], **kwargs) -> Cursor:
    return Cursor(
        ["a", "b"],
        [DataType.INTEGER, DataType.INTEGER],
        iter(make_batches(sizes)),
        **kwargs,
    )


def expected_rows(total: int) -> list[tuple]:
    return [(i, i * 10) for i in range(total)]


class TestCursor:
    def test_fetchall_matches_rows(self):
        result = make_cursor([3, 4, 1]).fetchall()
        assert result.rows == expected_rows(8)
        assert result.column_names == ["a", "b"]

    def test_fetchmany_odd_sizes_walk_batch_boundaries(self):
        cursor = make_cursor([5, 5, 5])
        out = []
        while True:
            got = cursor.fetchmany(7)
            out.extend(got)
            if len(got) < 7:
                break
        assert out == expected_rows(15)
        assert cursor.exhausted
        assert cursor.rows_fetched == 15

    def test_row_iteration_is_lazy_and_complete(self):
        cursor = make_cursor([2, 2, 2])
        assert list(cursor) == expected_rows(6)

    def test_fetchone_then_fetchall_keeps_every_row(self):
        cursor = make_cursor([4, 4])
        first = cursor.fetchone()
        rest = cursor.fetchall()
        assert [first] + rest.rows == expected_rows(8)

    def test_mixed_fetch_styles_return_rows_in_order(self):
        cursor = make_cursor([5, 1, 6, 4])
        out = [cursor.fetchone()]
        out += cursor.fetchmany(3)
        out.append(cursor.fetchone())
        out += cursor.fetchmany(4)  # crosses two batch boundaries
        assert cursor.fetchmany(0) == []
        out.append(cursor.fetchone())
        out += cursor.fetchmany(2)
        out += cursor.fetchall().rows
        assert out == expected_rows(16)
        assert cursor.fetchone() is None and cursor.fetchmany(3) == []

    def test_row_iteration_over_one_big_batch_is_linear(self):
        # Each fetchone is O(1): it must not copy the unread rest of
        # the batch, which made this loop quadratic (seconds).
        cursor = make_cursor([65_536])
        started = time.perf_counter()
        count = sum(1 for _ in cursor)
        assert time.perf_counter() - started < 1.0
        assert count == 65_536 and cursor.exhausted

    def test_batches_iterator_yields_batches(self):
        cursor = make_cursor([3, 3])
        sizes = [b.num_rows for b in cursor.batches()]
        assert sizes == [3, 3]
        assert cursor.batches_fetched == 2

    def test_close_is_idempotent_and_blocks_further_fetches(self):
        cursor = make_cursor([3, 3])
        assert cursor.fetchone() == (0, 0)
        cursor.close()
        cursor.close()
        assert cursor.closed
        with pytest.raises(CursorClosedError):
            cursor.fetchone()

    def test_on_close_fires_exactly_once(self):
        calls: list[Cursor] = []
        cursor = make_cursor([2], on_close=calls.append)
        cursor.fetchall()
        cursor.close()
        assert calls == [cursor]

    def test_close_propagates_to_source_generator(self):
        closed = []

        def source():
            try:
                yield make_batch(0, 2)
                yield make_batch(2, 2)
            finally:
                closed.append(True)

        cursor = Cursor(
            ["a", "b"], [DataType.INTEGER, DataType.INTEGER], source()
        )
        cursor.fetchone()
        cursor.close()
        assert closed == [True]

    def test_source_error_finishes_cursor_and_propagates(self):
        def source():
            yield make_batch(0, 2)
            raise CursorInvalidError("gone")

        done: list[Cursor] = []
        cursor = Cursor(
            ["a", "b"],
            [DataType.INTEGER, DataType.INTEGER],
            source(),
            on_close=done.append,
        )
        assert cursor.fetchmany(2) == expected_rows(2)
        with pytest.raises(CursorInvalidError):
            cursor.fetchmany(2)
        assert done and cursor.exhausted


class TestBatchChannel:
    def test_depth_never_exceeds_capacity(self):
        channel = BatchChannel(capacity=2, ttl_s=None)
        peaks = []

        def producer():
            for batch in make_batches([1] * 10):
                channel.put(batch)
            channel.finish()

        t = threading.Thread(target=producer)
        t.start()
        got = 0
        for _ in channel.drain():
            peaks.append(channel.depth)
            got += 1
            time.sleep(0.001)  # let the producer run ahead if it could
        t.join(timeout=5)
        assert got == 10
        assert channel.peak_depth <= 2
        assert all(d <= 2 for d in peaks)

    def test_slow_consumer_times_out_then_error_follows_batches(self):
        channel = BatchChannel(capacity=1, ttl_s=0.05)
        outcome = []

        def producer():
            try:
                for batch in make_batches([1] * 5):
                    channel.put(batch)
                channel.finish()
            except CursorTimeoutError as exc:
                outcome.append("timeout")
                channel.finish(exc)

        t = threading.Thread(target=producer)
        t.start()
        t.join(timeout=5)
        assert outcome == ["timeout"]
        assert channel.timed_out
        # The batch that made it into the channel still arrives, then
        # the clean error.
        drained = channel.drain()
        assert next(drained).num_rows == 1
        with pytest.raises(CursorTimeoutError):
            next(drained)

    def test_consumer_close_unblocks_producer(self):
        channel = BatchChannel(capacity=1, ttl_s=None)
        results = []

        def producer():
            for batch in make_batches([1] * 5):
                if not channel.put(batch):
                    results.append("stopped")
                    return
            results.append("ran dry")

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)  # producer fills the one slot and blocks
        channel.close()
        t.join(timeout=5)
        assert results == ["stopped"]

    def test_drain_close_before_first_item_unblocks_producer(self):
        channel = BatchChannel(capacity=1, ttl_s=None)
        results = []

        def producer():
            for batch in make_batches([1] * 5):
                if not channel.put(batch):
                    results.append("stopped")
                    return
            results.append("ran dry")

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        batches = channel.drain()
        batches.close()  # never iterated — must still hang up
        t.join(timeout=5)
        assert results == ["stopped"]

    def test_force_close_surfaces_invalid_error(self):
        channel = BatchChannel(capacity=1, ttl_s=None)
        # Third party (service shutdown) closed; producer never finished.
        channel.close(by_consumer=False)
        with pytest.raises(CursorInvalidError):
            next(channel.drain())

    def test_self_close_surfaces_closed_error_not_invalid(self):
        channel = BatchChannel(capacity=1, ttl_s=None)
        channel.close()  # the consumer hung up on itself...
        with pytest.raises(CursorClosedError):
            channel.get()  # ...then asked for more: its own doing

    def test_self_close_wins_over_later_force_close(self):
        channel = BatchChannel(capacity=1, ttl_s=None)
        channel.close()
        channel.close(by_consumer=False)  # shutdown races the hang-up
        with pytest.raises(CursorClosedError):
            channel.get()

    def test_producer_error_redelivered_as_fresh_instances(self):
        channel = BatchChannel(capacity=4, ttl_s=None)
        original = CursorTimeoutError("producer gave up")
        try:
            raise original  # give it a producer-side traceback
        except CursorTimeoutError as exc:
            channel.finish(exc)
        seen = []
        for _ in range(2):
            with pytest.raises(CursorTimeoutError) as info:
                channel.get()
            seen.append(info.value)
        first, second = seen
        assert first is not original and second is not original
        assert first is not second  # no shared, traceback-mutated instance
        assert str(first) == str(second) == "producer gave up"
        # The producer-side traceback stays reachable through the cause.
        assert first.__cause__ is original
        assert original.__traceback__ is not None

    def test_cursor_fetchone_twice_after_producer_error(self):
        # Regression: a cursor over a failed channel must re-report the
        # failure on every subsequent fetch, not return a clean empty
        # tail, and each delivery must be a distinct instance.
        channel = BatchChannel(capacity=4, ttl_s=None)
        channel.put(make_batch(0, 1))
        channel.finish(CursorTimeoutError("consumer too slow"))
        cursor = Cursor(
            ["a", "b"], [DataType.INTEGER, DataType.INTEGER], channel.drain()
        )
        assert cursor.fetchone() == (0, 0)
        with pytest.raises(CursorTimeoutError) as first:
            cursor.fetchone()
        with pytest.raises(CursorTimeoutError) as second:
            cursor.fetchone()
        assert first.value is not second.value
        assert cursor.exhausted and not cursor.closed
