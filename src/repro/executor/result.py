"""Query results: a lazy :class:`Cursor` streaming batches to the
client, and the materialized :class:`QueryResult` built from one
(``cursor.fetchall()``) — plus the execution metrics that the demo's
monitoring panels visualize."""

from __future__ import annotations

from typing import Callable, Iterator

from ..batch import Batch
from ..core.metrics import QueryMetrics
from ..datatypes import DataType, days_to_date
from ..errors import CursorClosedError, ExecutionError, fresh_copy


def batch_rows(batch: Batch, names: list[str]) -> list[tuple]:
    """One batch's rows as tuples, columns ordered by ``names``."""
    ordered = [batch.column(n).to_pylist() for n in names]
    return list(zip(*ordered))


def replay(
    batches: list[Batch], error: BaseException | None = None
) -> Iterator[Batch]:
    """The batch source of a cursor whose plan already ran: its
    batches, then the error that stopped production (if any) — the
    order a live stream would have delivered them in."""
    yield from batches
    if error is not None:
        raise error


class Cursor:
    """A lazy result: batches are pulled from the producing scan on
    demand instead of being materialized up front.

    The executor is batch-at-a-time all the way down; the cursor is the
    client-facing end of that pipeline.  Consumption styles:

    * :meth:`batches` — iterate raw :class:`Batch` objects (cheapest);
    * ``for row in cursor`` / :meth:`fetchone` / :meth:`fetchmany` —
      row-at-a-time, DB-API style;
    * :meth:`fetchall` — drain into a materialized
      :class:`QueryResult` (what the classic ``query()`` API returns).

    ``metrics.time_to_first_batch`` is stamped when the first batch
    reaches the consumer; ``metrics.end()`` fires when the cursor is
    exhausted or closed, so ``total_seconds`` covers the full stream.
    Always :meth:`close` (or exhaust, or use as a context manager) a
    cursor opened against the concurrent service — the producing scan
    holds shared table locks until then.
    """

    def __init__(
        self,
        column_names: list[str],
        column_types: list[DataType],
        batches: Iterator[Batch],
        metrics: QueryMetrics | None = None,
        on_close: "Callable[[Cursor], None] | None" = None,
    ) -> None:
        self.column_names = list(column_names)
        self.column_types = list(column_types)
        self.metrics = metrics or QueryMetrics()
        #: Default :meth:`fetchmany` size (PEP 249); mutable per cursor.
        self.arraysize = 1
        self._batches = batches
        # Rows decoded from the current batch; those before the read
        # offset are already fetched (dropped once per batch, so
        # row-at-a-time reads stay O(1) each).
        self._pending: list[tuple] = []
        self._pending_pos = 0
        self._on_close = on_close
        self._stream_error: BaseException | None = None
        self.closed = False
        self.exhausted = False
        self.batches_fetched = 0
        self.rows_fetched = 0
        #: Telemetry trace id of the producing query, stamped by the
        #: service (in-process) or from the wire END/ERROR frame
        #: (remote cursors); ``None`` when telemetry is disabled.
        self.trace_id: str | None = None

    # ------------------------------------------------------------------
    # Batch-level consumption.
    # ------------------------------------------------------------------

    def _next_batch(self) -> Batch | None:
        """Pull the next batch; ``None`` at end of stream.

        An error from the producing side (e.g. ``CursorTimeoutError``,
        a mid-scan ``RawDataError``) finishes the cursor and propagates.
        """
        if self.closed:
            raise CursorClosedError("cursor is closed")
        if self.exhausted:
            if self._stream_error is not None:
                # A failed stream stays failed: every further fetch
                # re-reports the failure (as a fresh instance — see
                # errors.fresh_copy) instead of masquerading as a clean
                # empty tail.
                raise fresh_copy(self._stream_error) from self._stream_error
            return None
        try:
            batch = next(self._batches)
        except StopIteration:
            self._finish()
            return None
        except BaseException as exc:
            self._stream_error = exc
            self._finish()
            raise
        self.metrics.mark_first_batch()
        self.batches_fetched += 1
        # Counted at the stream, not at delivery: exhaustion fires the
        # on_close accounting while rows may still sit in the row-level
        # buffer, and batch-level consumers never call the row APIs.
        self.rows_fetched += batch.num_rows
        return batch

    def batches(self) -> Iterator[Batch]:
        """Iterate the remaining batches (row-level buffers excluded:
        rows already pulled via ``fetchone``/``fetchmany`` stay with the
        row-level API — don't mix the two styles mid-batch)."""
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            yield batch

    # ------------------------------------------------------------------
    # Row-level consumption (DB-API flavored).
    # ------------------------------------------------------------------

    @property
    def description(self) -> list[tuple]:
        """PEP 249 column descriptions.

        One 7-tuple per result column: ``(name, type_code, None, None,
        None, None, None)`` — ``type_code`` is the column's
        :class:`repro.datatypes.DataType` (compare with ``==``); the
        display/size/precision/nullability slots are not tracked.
        """
        return [
            (name, dtype, None, None, None, None, None)
            for name, dtype in zip(self.column_names, self.column_types)
        ]

    @property
    def rowcount(self) -> int:
        """Rows produced by the stream; ``-1`` while still streaming
        (a lazy cursor cannot know its cardinality up front, which PEP
        249 anticipates)."""
        if self.exhausted or self.closed:
            return self.rows_fetched
        return -1

    def setinputsizes(self, sizes: object) -> None:
        """PEP 249 no-op (no parameter binding on the SELECT subset)."""

    def setoutputsize(self, size: int, column: int | None = None) -> None:
        """PEP 249 no-op (values are never truncated)."""

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def fetchone(self) -> tuple | None:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, n: int | None = None) -> list[tuple]:
        """Up to ``n`` rows (default :attr:`arraysize`, per PEP 249);
        fewer only at end of stream."""
        if n is None:
            n = self.arraysize
        if n < 0:
            raise ExecutionError(f"fetchmany needs n >= 0, got {n}")
        pending = self._pending
        while len(pending) - self._pending_pos < n:
            batch = self._next_batch()
            if batch is None:
                break
            del pending[: self._pending_pos]
            self._pending_pos = 0
            pending.extend(batch_rows(batch, self.column_names))
        out = pending[self._pending_pos : self._pending_pos + n]
        self._pending_pos += len(out)
        return out

    def fetchall(self) -> "QueryResult":
        """Drain the stream into a materialized :class:`QueryResult`."""
        rows, self._pending = self._pending, []
        del rows[: self._pending_pos]
        self._pending_pos = 0
        while True:
            batch = self._next_batch()
            if batch is None:
                break
            rows.extend(batch_rows(batch, self.column_names))
        return QueryResult(
            self.column_names, self.column_types, rows, self.metrics
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _finish(self) -> None:
        """End of stream (natural or error): settle metrics, notify."""
        if self.exhausted:
            return
        self.exhausted = True
        self.metrics.end()
        self.metrics.settle_processing()
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback(self)

    def abort_stream(self) -> None:
        """Close only the underlying batch source — thread-safe.

        Unlike :meth:`close`, this touches no cursor state, so another
        thread blocked in a fetch unblocks with the source's close
        error and finishes the cursor itself on its own thread.  Used
        by the wire server to interrupt a stream from the connection's
        request loop while that stream's pump owns the cursor.
        """
        closer = getattr(self._batches, "close", None)
        if closer is not None:
            closer()

    def close(self) -> None:
        """Abandon the stream (idempotent).

        Closes the producing side — under the concurrent service that
        releases the shared table locks and still installs whatever the
        scan learned up to this point.
        """
        if self.closed:
            return
        closer = getattr(self._batches, "close", None)
        if closer is not None:
            closer()
        self._finish()
        self.closed = True
        self._pending, self._pending_pos = [], 0

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: leaked cursors release locks
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = (
            "closed"
            if self.closed
            else "exhausted"
            if self.exhausted
            else "open"
        )
        return (
            f"Cursor({', '.join(self.column_names)}; {state}, "
            f"{self.rows_fetched} rows fetched)"
        )


class QueryResult:
    """Materialized result set with column metadata and timing."""

    def __init__(
        self,
        column_names: list[str],
        column_types: list[DataType],
        rows: list[tuple],
        metrics: QueryMetrics | None = None,
    ) -> None:
        self.column_names = column_names
        self.column_types = column_types
        self.rows = rows
        self.metrics = metrics or QueryMetrics()

    @classmethod
    def from_batches(
        cls,
        batches: list[Batch],
        types: dict[str, DataType],
        metrics: QueryMetrics | None = None,
    ) -> "QueryResult":
        names = list(types)
        rows: list[tuple] = []
        for batch in batches:
            rows.extend(batch_rows(batch, names))
        return cls(names, [types[n] for n in names], rows, metrics)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def description(self) -> list[tuple]:
        """PEP 249-shaped column descriptions (see
        :attr:`Cursor.description`)."""
        return [
            (name, dtype, None, None, None, None, None)
            for name, dtype in zip(self.column_names, self.column_types)
        ]

    @property
    def rowcount(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, idx: int) -> tuple:
        return self.rows[idx]

    @property
    def elapsed_seconds(self) -> float:
        return self.metrics.total_seconds

    def first(self) -> tuple:
        if not self.rows:
            raise ExecutionError("result set is empty")
        return self.rows[0]

    def scalar(self) -> object:
        """Single value of a 1x1 result (aggregate queries)."""
        if len(self.rows) != 1 or len(self.column_names) != 1:
            raise ExecutionError(
                "scalar() needs a 1x1 result, have "
                f"{len(self.rows)}x{len(self.column_names)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        try:
            idx = self.column_names.index(name)
        except ValueError:
            raise ExecutionError(
                f"no column {name!r} in result (have {self.column_names})"
            ) from None
        return [row[idx] for row in self.rows]

    def to_pydict(self) -> dict[str, list[object]]:
        return {n: self.column(n) for n in self.column_names}

    def format_table(self, max_rows: int = 20) -> str:
        """Human-readable table rendering (dates shown as ISO strings)."""
        shown = self.rows[:max_rows]
        rendered: list[list[str]] = []
        for row in shown:
            cells = []
            for value, dtype in zip(row, self.column_types):
                if value is None:
                    cells.append("NULL")
                elif dtype is DataType.DATE:
                    cells.append(days_to_date(value).isoformat())
                elif dtype is DataType.FLOAT:
                    cells.append(f"{value:.4f}")
                else:
                    cells.append(str(value))
            rendered.append(cells)
        headers = self.column_names
        widths = [
            max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
            for i, h in enumerate(headers)
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            sep,
        ]
        for cells in rendered:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(cells, widths))
            )
        hidden = len(self.rows) - len(shown)
        if hidden > 0:
            lines.append(f"... ({hidden} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryResult({len(self.rows)} rows x "
            f"{len(self.column_names)} cols, "
            f"{self.metrics.total_seconds * 1000:.1f} ms)"
        )
