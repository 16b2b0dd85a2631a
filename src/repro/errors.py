"""Exception hierarchy for the PostgresRaw reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common cases (bad SQL, bad schema, malformed raw
data) when they need to.

The hierarchy also defines the **wire error codes** spoken by the socket
server (:mod:`repro.server`): every class carries a stable string code,
:func:`wire_code_for` picks the most specific code for an instance, and
:func:`error_from_wire` rebuilds the matching exception on the client —
so ``except AdmissionError`` works identically against an in-process
session and a remote connection.
"""

from __future__ import annotations

import copy as _copy


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """A table or column was not found, or was registered twice."""


class SchemaError(ReproError):
    """A schema definition is invalid (duplicate columns, bad type, ...)."""


class SQLSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so callers can point at the source.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class PlanningError(ReproError):
    """A parsed query could not be turned into an executable plan."""


class ShardingError(PlanningError):
    """A query cannot run against a sharded cluster: its shape is not
    scatter-mergeable (joins, non-decomposable aggregates) or the
    partition metadata is inconsistent with the statement."""


class ExecutionError(ReproError):
    """A plan failed while running (type mismatch, bad aggregate, ...)."""


class RawDataError(ReproError):
    """A raw file is malformed with respect to its declared schema.

    Carries the 0-based row number when known, mirroring how PostgresRaw
    reports conversion failures with the offending tuple.  Tokenizers
    that only know *where* in the file they are pass the byte
    ``offset`` instead; the scan turns it into the row.
    """

    def __init__(
        self,
        message: str,
        row: int | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message)
        self.row = row
        self.offset = offset


class ConversionError(RawDataError):
    """A field's text could not be converted to its declared binary type."""


class ScanWorkerError(RawDataError):
    """A parallel scan-pool worker failed while processing its chunk.

    Wraps the worker's original exception with the scan context that a
    bare cross-process traceback loses: the 0-based chunk index and the
    table name both travel in the message (so they survive pickling
    through the process backend) and as attributes when available.
    A worker counts rows from its chunk's first row; the driver rebases
    ``row`` (and says so in the message) before the error leaves the scan.
    """

    def __init__(
        self,
        message: str,
        chunk_index: int | None = None,
        table: str | None = None,
        row: int | None = None,
        offset: int | None = None,
    ) -> None:
        super().__init__(message, row, offset)
        self.chunk_index = chunk_index
        self.table = table


class StorageError(ReproError):
    """The conventional-DBMS storage layer hit an inconsistency."""


class UpdateConflictError(ReproError):
    """The raw file changed under an open scan: the bytes a positional
    jump would read are no longer the bytes the map describes.  The
    next query reconciles (``refresh``) and answers from the new file.
    """


class BudgetError(ReproError):
    """A configured byte budget is too small to hold mandatory state."""


class ServiceError(ReproError):
    """The concurrent query service could not process a request
    (e.g. the service has been closed)."""


class AdmissionError(ServiceError):
    """A query was rejected by admission control: the service is at
    ``max_concurrent_queries`` and the wait queue is already
    ``admission_queue_depth`` deep."""


class CursorError(ServiceError):
    """A streaming cursor could not deliver (more of) its result."""


class CursorClosedError(CursorError):
    """Rows were requested from a cursor that was already closed."""


class CursorInvalidError(CursorError):
    """The table(s) a cursor was opened against were dropped or
    rewritten before the producing scan could serve it — the rows the
    cursor would have returned describe state that no longer exists."""


class CursorTimeoutError(CursorError):
    """The cursor's consumer was too slow: the producing scan waited
    longer than ``cursor_ttl_s`` for room in the handoff queue and
    abandoned the query (releasing its table locks).  Batches produced
    before the abandonment are still delivered; this error follows
    them."""


class ProtocolError(ServiceError):
    """The wire conversation broke: a malformed or oversized frame, a
    version mismatch in the handshake, a rejected auth token, or a
    frame that is illegal in the connection's current state."""


class StreamLimitError(ServiceError):
    """A QUERY was refused because the connection already runs
    ``max_streams_per_connection`` concurrent streams.  Query-level,
    not fatal: the connection and its other streams keep working —
    close a cursor (or use another pooled connection) and retry."""


class IntegrityError(ReproError):
    """A constraint would be violated (reserved: the engine currently
    declares no constraints; part of the PEP 249 surface)."""


class InternalError(ReproError):
    """The library reached a state it believes impossible."""


class NotSupportedError(ReproError):
    """A requested feature is outside the supported SQL/API subset."""


class Warning(Exception):  # noqa: A001 - name mandated by PEP 249
    """Important non-fatal notice (PEP 249); never raised as an error."""


#: PEP 249 exception names, aliased onto the native hierarchy so
#: ``except repro.OperationalError`` works like any DB-API driver.
#: Deviation from the PEP's two-branch tree: everything descends from
#: :class:`ReproError` (= ``Error``), so ``InterfaceError`` is also a
#: ``DatabaseError`` — harmless for catch-clause purposes.
Error = ReproError
DatabaseError = ReproError
InterfaceError = ProtocolError
DataError = RawDataError
OperationalError = ServiceError
ProgrammingError = SQLSyntaxError


def fresh_copy(exc: BaseException) -> BaseException:
    """A new exception instance equivalent to ``exc``.

    Raising a stored exception hands the *same* object to every
    consumer: each ``raise`` rewrites its ``__traceback__`` and implicit
    chaining mutates ``__context__``, so two independent readers of one
    failed stream would see each other's stack fragments.  Copying via
    the exception's reduce protocol preserves ``args`` and instance
    attributes (e.g. ``RawDataError.row``) while giving the copy a clean
    traceback; callers chain it with ``raise fresh_copy(e) from e`` so
    the original producer-side traceback stays visible as the cause.
    """
    try:
        duplicate = _copy.copy(exc)
    except Exception:  # uncopyable exotic exception: reuse it
        return exc
    return duplicate


#: Stable wire codes for the exception families the socket server can
#: report.  Ordered most-specific-first: ``wire_code_for`` returns the
#: first entry the instance is-a, so subclasses added later fall back to
#: their nearest ancestor's code instead of an unknown code.
_WIRE_CODES: list[tuple[str, type]] = []


def _register_wire(code: str, cls: type) -> None:
    _WIRE_CODES.append((code, cls))


def wire_code_for(exc: BaseException) -> str:
    """The most specific registered wire code for ``exc``
    (``"internal"`` for anything outside the library hierarchy)."""
    for code, cls in _WIRE_CODES:
        if isinstance(exc, cls):
            return code
    return "internal"


def error_from_wire(code: str, message: str) -> ReproError:
    """Rebuild the exception class a wire code names.

    Unknown codes (a newer server speaking to an older client) degrade
    to plain :class:`ReproError` rather than failing the decode.
    """
    for known, cls in _WIRE_CODES:
        if known == code:
            return cls(message)
    return ReproError(f"[{code}] {message}")


for _code, _cls in (
    ("admission", AdmissionError),
    ("cursor_closed", CursorClosedError),
    ("cursor_invalid", CursorInvalidError),
    ("cursor_timeout", CursorTimeoutError),
    ("cursor", CursorError),
    ("stream_limit", StreamLimitError),
    ("protocol", ProtocolError),
    ("service", ServiceError),
    ("sql_syntax", SQLSyntaxError),
    ("sharding", ShardingError),
    ("planning", PlanningError),
    ("execution", ExecutionError),
    ("conversion", ConversionError),
    ("scan_worker", ScanWorkerError),
    ("raw_data", RawDataError),
    ("catalog", CatalogError),
    ("schema", SchemaError),
    ("storage", StorageError),
    ("integrity", IntegrityError),
    ("not_supported", NotSupportedError),
    ("budget", BudgetError),
    ("update_conflict", UpdateConflictError),
    ("internal", ReproError),
):
    _register_wire(_code, _cls)
