"""The concurrent serving layer over the PostgresRaw core.

The paper's adaptive structures are most valuable when shared across a
whole query stream; this package makes that sharing safe and governed
under concurrency:

* :mod:`repro.service.locks` — per-table reader-writer locks
  (jump-path queries share, installation excludes);
* :mod:`repro.service.scheduler` — admission control
  (``max_concurrent_queries`` + a bounded wait queue);
* :mod:`repro.service.governor` — the memory governor, every engine's
  only admission path: one ``memory_budget`` arbitrated across every
  table's map chunks, cache entries, aggregates and promoted columns on
  benefit-per-byte;
* :mod:`repro.service.plan_cache` — the engine-wide cache of statement
  templates by shape (a repeated shape with new WHERE values skips
  lexer, parser and planner);
* :mod:`repro.service.service` — :class:`PostgresRawService` (the
  thread-safe engine) and :class:`Session` (per-client handles).

The classic :class:`repro.core.engine.PostgresRaw` facade wraps a
service with one default session, so single-threaded code is untouched::

    service = PostgresRawService(PostgresRawConfig(memory_budget=1 << 28))
    service.register_csv("t", "data.csv", schema)
    session = service.session()          # one per client thread
    result = session.query("SELECT a0 FROM t WHERE a1 < 100")
"""

from .governor import GovernedItem, MemoryGovernor
from .locks import RWLock
from .scheduler import QueryScheduler
from .service import PostgresRawService, Session
from .streaming import BatchChannel

__all__ = [
    "BatchChannel",
    "GovernedItem",
    "MemoryGovernor",
    "RWLock",
    "QueryScheduler",
    "PostgresRawService",
    "Session",
]
