"""Adaptive structures bound to (and registered with) a memory governor.

Every governed tier is admitted under a
:class:`repro.service.MemoryGovernor`; these helpers build one the way
the service does, for tests that exercise a structure without an
engine.  (``tests/`` is on ``sys.path`` through its ``conftest.py``.)
"""

from __future__ import annotations

import numpy as np

from repro.batch import Batch, ColumnVector
from repro.config import DEFAULT_BATCH_SIZE
from repro.core.cache import CacheEntry, RawDataCache
from repro.core.ledger import now
from repro.core.positional_map import PositionalMap
from repro.core.synopsis import Synopsis
from repro.datatypes import DataType
from repro.mv import MaterializedAggregate, MVRecipe, QuerySignature
from repro.service import MemoryGovernor
from repro.storage.vertical import VerticalStore


def governed_cache(
    governor: MemoryGovernor, table: str = "t"
) -> RawDataCache:
    cache = RawDataCache(governor)
    governor.register(cache, table, "cache")
    return cache


def cache_bytes(vector: ColumnVector) -> int:
    """What a :func:`governed_cache` entry holding ``vector`` charges:
    its values and its synopsis."""
    synopsis = Synopsis.of(vector, DEFAULT_BATCH_SIZE)
    return CacheEntry(0, vector, synopsis).nbytes


def synopsis_bytes(rows: int) -> int:
    """Bytes the synopsis of a ``rows``-row INTEGER column holds, in the
    windows :func:`governed_cache` and :func:`governed_store` use."""
    vector = ColumnVector.from_values(
        DataType.INTEGER, np.zeros(rows, dtype=np.int64)
    )
    return Synopsis.of(vector, DEFAULT_BATCH_SIZE).nbytes


def governed_map(
    governor: MemoryGovernor, table: str = "t"
) -> PositionalMap:
    pm = PositionalMap(governor)
    governor.register(pm, table, "map")
    return pm


def governed_store(
    governor: MemoryGovernor, root, table: str = "t"
) -> VerticalStore:
    store = VerticalStore(table, root, governor)
    governor.register(store, table, "columnstore")
    return store


def count_signature(dim: str, table: str = "t") -> QuerySignature:
    """``SELECT <dim>, count(*) FROM <table> GROUP BY <dim>``."""
    return QuerySignature(table, (dim,), (), (("count", "*"),), ())


def mv_entry(
    sig: QuerySignature,
    groups: int,
    benefit: float = 1.0,
    nbytes: int | None = None,
    mv_id: int = 0,
) -> MaterializedAggregate:
    """A captured ``count(*)`` aggregate of ``groups`` groups (``nbytes``
    defaults to what its batch holds)."""
    batch = Batch(
        {"count:*": ColumnVector.from_pylist(DataType.INTEGER, [1] * groups)}
    )
    return MaterializedAggregate(
        mv_id=mv_id,
        signature=sig,
        dims=sig.dims,
        columns={("count", "*"): "count:*"},
        batch=batch,
        types={"count:*": DataType.INTEGER},
        nbytes=(
            sum(v.nbytes() for v in batch.columns.values())
            if nbytes is None
            else nbytes
        ),
        generation=0,
        rows=groups,
        recipe=MVRecipe((), (), ()),
        benefit_seconds=benefit,
        build_seconds=0.0,
        created_unix=0.0,
    )


def cache_layout(engine, table: str = "t") -> list[tuple[int, int, int]]:
    """``(attr, rows, nbytes)`` of every cache entry — what two engines
    that ran the same queries must agree on (their recency stamps differ;
    :func:`record_touches` compares which query set them)."""
    return [
        (e["attr"], e["rows"], e["nbytes"])
        for e in engine.table_state(table).cache.describe()
    ]


def record_touches(engine, table: str = "t"):
    """Make ``engine.query`` log what each query touched.

    After every query that returns, ``engine.touches`` gains the pair
    (cache attributes, map chunk ``attrs``) whose ``last_used_ts`` the
    query stamped.  Recency decides eviction order under pressure, so
    two engines that ran the same queries must log the same touches.
    """
    query = engine.query
    engine.touches = []

    def recording(sql, *args, **kwargs):
        start = now()
        result = query(sql, *args, **kwargs)
        state = engine.table_state(table)
        engine.touches.append(
            (
                {
                    e.attr
                    for e in state.cache.entries()
                    if e.last_used_ts >= start
                },
                {
                    c.attrs
                    for c in state.positional_map.entries()
                    if c.last_used_ts >= start
                },
            )
        )
        return result

    engine.query = recording
    return engine
