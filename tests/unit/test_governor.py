"""The global memory governor: one budget across all adaptive state.

Covers the arbitration rules in isolation (caches and positional maps
bound to one governor, no engine) and the service-level release path
(``drop_table`` returning bytes to the budget).
"""

from __future__ import annotations

import numpy as np
import pytest

from governed import (
    cache_bytes,
    count_signature,
    governed_cache,
    governed_map,
    mv_entry,
)
from repro.batch import ColumnVector
from repro.datatypes import DataType
from repro.mv import MVCatalog, MVMatch
from repro.service import MemoryGovernor
from repro.telemetry.registry import MetricsRegistry


def vector(n_rows: int) -> ColumnVector:
    return ColumnVector(
        DataType.INTEGER,
        np.arange(n_rows, dtype=np.int64),
        np.zeros(n_rows, dtype=np.bool_),
    )


def vector_bytes(n_rows: int) -> int:
    """What a cache entry of ``vector(n_rows)`` charges."""
    return cache_bytes(vector(n_rows))


def offsets(n_rows: int, n_attrs: int) -> np.ndarray:
    return np.arange(n_rows * n_attrs, dtype=np.int64).reshape(
        n_rows, n_attrs
    )


class TestGovernorAccounting:
    def test_used_bytes_tracks_members(self):
        governor = MemoryGovernor(1 << 20)
        cache_a = governed_cache(governor, "a")
        pm_b = governed_map(governor, "b")
        assert governor.used_bytes == 0
        cache_a.put(0, vector(100), benefit_seconds=1.0)
        pm_b.install((0, 1), offsets(100, 2), benefit_seconds=1.0)
        assert governor.used_bytes == (
            cache_a.used_bytes + pm_b.used_bytes
        )
        assert governor.used_bytes <= governor.budget_bytes

    def test_budget_never_exceeded(self):
        budget = vector_bytes(100) * 3
        governor = MemoryGovernor(budget)
        cache = governed_cache(governor, "a")
        for attr in range(10):
            cache.put(attr, vector(100), benefit_seconds=float(attr))
            assert governor.used_bytes <= budget
        assert cache.evictions > 0

    def test_oversized_grant_rejected_without_eviction(self):
        governor = MemoryGovernor(vector_bytes(100))
        cache = governed_cache(governor, "a")
        assert cache.put(0, vector(50), benefit_seconds=5.0)
        before = governor.used_bytes
        assert not cache.put(1, vector(10_000), benefit_seconds=99.0)
        assert governor.used_bytes == before  # nothing was evicted for it
        assert governor.rejected_grants == 1
        assert cache.peek(0) is not None

    def test_line_bounds_stay_pinned(self):
        governor = MemoryGovernor(1 << 16)
        pm = governed_map(governor, "a")
        pm.set_line_bounds(np.arange(1000, dtype=np.int64))
        # The tuple-boundary backbone is pinned, not governed.
        assert governor.used_bytes == 0
        assert pm.line_index_bytes > 0


class TestEvictionOrdering:
    def test_lowest_benefit_per_byte_goes_first_across_tables(self):
        budget = vector_bytes(100) * 2
        governor = MemoryGovernor(budget)
        cache_a = governed_cache(governor, "a")
        cache_b = governed_cache(governor, "b")
        cache_a.put(0, vector(100), benefit_seconds=10.0)  # dense
        cache_b.put(0, vector(100), benefit_seconds=0.1)   # sparse
        # A third column forces one eviction: table B's sparse entry
        # must be the victim even though table A is the requester's peer.
        assert cache_a.put(1, vector(100), benefit_seconds=5.0)
        assert cache_a.peek(0) is not None
        assert cache_a.peek(1) is not None
        assert cache_b.peek(0) is None
        assert governor.cross_evictions == 1

    def test_map_chunks_and_cache_entries_share_one_currency(self):
        n = 100
        budget = vector_bytes(n) + offsets(n, 2).nbytes
        governor = MemoryGovernor(budget)
        cache = governed_cache(governor, "a")
        pm = governed_map(governor, "b")
        pm.install((0, 1), offsets(n, 2), benefit_seconds=0.01)  # sparse map
        cache.put(0, vector(n), benefit_seconds=10.0)            # dense cache
        # New dense chunk: the governor should sacrifice the *sparse
        # chunk*, not the dense cache entry, despite kind differences.
        installed = pm.install((2, 3), offsets(n, 2), benefit_seconds=8.0)
        assert installed is not None
        assert cache.peek(0) is not None
        assert pm.peek((0, 1)) is None
        assert pm.peek((2, 3)) is not None

    def test_recency_breaks_density_ties(self):
        budget = vector_bytes(100) * 2
        governor = MemoryGovernor(budget)
        cache = governed_cache(governor, "a")
        cache.put(0, vector(100), benefit_seconds=1.0)
        cache.put(1, vector(100), benefit_seconds=1.0)
        cache.put(2, vector(100), benefit_seconds=1.0)
        # Equal densities: the least recently installed/used entry loses.
        assert cache.peek(0) is None
        assert cache.peek(1) is not None
        assert cache.peek(2) is not None

    def test_recency_tie_break_spans_tables(self, small_csv):
        # Table A runs ten queries before installing, B one query and
        # installs later: recency must say B's chunk is the newer one,
        # whatever per-table query counts say.
        from repro import PostgresRawConfig, PostgresRawService

        path, schema = small_csv
        chunk = offsets(100, 1)
        config = PostgresRawConfig(memory_budget=2 * chunk.nbytes)
        with PostgresRawService(config) as service:
            for table in "abc":
                service.register_csv(table, path, schema)
            a, b, c = (service.table_state(t) for t in "abc")
            for __ in range(10):
                a.begin_query()
            a.positional_map.install((0,), chunk)
            b.begin_query()
            b.positional_map.install((0,), chunk)
            c.begin_query()
            assert c.positional_map.install((0,), chunk) is not None
            assert a.positional_map.chunk_count == 0  # the older chunk
            assert b.positional_map.chunk_count == 1

    def test_recency_tie_break_spans_kinds(self):
        n = vector_bytes(100)
        governor = MemoryGovernor(2 * n)
        cache = governed_cache(governor)
        catalog = MVCatalog(MetricsRegistry(), governor)
        cache.put(0, vector(100), benefit_seconds=1.0)
        entry = mv_entry(count_signature("a"), 1, benefit=1.0, nbytes=n)
        assert catalog.install(entry)
        cache.get(0)  # the cache entry is now the more recently used
        # Equal densities: the least recently touched entry, the MV,
        # makes room for the new column.
        assert cache.put(1, vector(100), benefit_seconds=1.0)
        assert catalog.entry_count() == 0
        assert cache.peek(0) is not None and cache.peek(1) is not None
        # Touching the MV makes the cache entries the older ones.
        assert catalog.install(mv_entry(count_signature("b"), 1, nbytes=n))
        catalog.note_served(MVMatch(catalog.entries()[0], "exact", None, 1))
        assert cache.peek(0) is None and cache.peek(1) is not None

    def test_protected_tokens_survive(self):
        budget = vector_bytes(100) * 2
        governor = MemoryGovernor(budget)
        cache = governed_cache(governor, "a")
        cache.put(0, vector(100), benefit_seconds=0.0)  # worst density
        cache.put(1, vector(100), benefit_seconds=9.0)
        # Requesting room while protecting attr 0 must evict attr 1
        # (the only unprotected candidate), not the protected one.
        assert cache.put(
            2, vector(100), protected={0}, benefit_seconds=1.0
        )
        assert cache.peek(0) is not None
        assert cache.peek(1) is None


class TestRelease:
    def test_unregister_table_returns_bytes(self):
        governor = MemoryGovernor(1 << 20)
        cache_a = governed_cache(governor, "a")
        cache_b = governed_cache(governor, "b")
        cache_a.put(0, vector(200), benefit_seconds=1.0)
        cache_b.put(0, vector(100), benefit_seconds=1.0)
        freed = governor.unregister_table("a")
        assert freed == vector_bytes(200)
        assert governor.used_bytes == vector_bytes(100)
        assert governor.released_bytes == freed
        assert all(r["table"] == "b" for r in governor.residency())

    def test_drop_table_releases_and_raises_catalog_error(
        self, small_csv
    ):
        from repro import PostgresRawConfig, PostgresRawService
        from repro.errors import CatalogError

        path, schema = small_csv
        service = PostgresRawService(
            PostgresRawConfig(memory_budget=64 * 1024 * 1024)
        )
        service.register_csv("t", path, schema)
        session = service.session()
        session.query("SELECT a0, a1 FROM t WHERE a2 < 500000")
        assert service.governor.used_bytes > 0
        service.drop_table("t")
        assert service.governor.used_bytes == 0
        with pytest.raises(CatalogError):
            service.drop_table("t")
        with pytest.raises(CatalogError):
            service.table_state("t")
        # The name is free again.
        service.register_csv("t", path, schema)
        assert len(session.query("SELECT a0 FROM t WHERE a0 >= 0")) > 0
        service.close()


class TestOneAdmissionPath:
    def test_default_engine_admits_every_tier_through_its_governor(
        self, small_csv, tmp_path
    ):
        from repro import PostgresRawConfig, PostgresRawService
        from repro.config import DEFAULT_MEMORY_BUDGET

        path, schema = small_csv
        config = PostgresRawConfig(
            mv_auto=True,
            mv_min_repeats=1,
            vp_enabled=True,
            vp_min_accesses=1,
            vp_dir=str(tmp_path / "vp"),
        )
        with PostgresRawService(config) as service:
            governor = service.governor
            assert governor.budget_bytes == DEFAULT_MEMORY_BUDGET
            service.register_csv("t", path, schema)
            state = service.table_state("t")
            assert state.positional_map.governor is governor
            assert state.cache.governor is governor
            session = service.session()
            for __ in range(3):
                session.query("SELECT SUM(a1) AS s FROM t WHERE a2 < 500000")
            resident = {
                r["kind"] for r in governor.residency() if r["nbytes"]
            }
            assert resident == {"map", "cache", "columnstore", "mv"}
            assert governor.used_bytes == sum(
                r["nbytes"] for r in governor.residency()
            )


class TestBenefitDecay:
    def test_stale_expensive_structure_loses_to_recent_useful_one(self):
        budget = vector_bytes(100) * 2
        governor = MemoryGovernor(budget, benefit_half_life_s=1.0)
        cache = governed_cache(governor, "a")
        # Attr 0 measured a huge benefit... a long time ago.
        cache.put(0, vector(100), benefit_seconds=100.0)
        cache.put(1, vector(100), benefit_seconds=1.0)
        # Age attr 0 by many half-lives: its effective benefit-per-byte
        # decays below the recently-useful attr 1.
        cache.peek(0).last_used_ts -= 1000.0
        assert cache.put(2, vector(100), benefit_seconds=1.0)
        assert cache.peek(0) is None  # the cold, stale entry lost
        assert cache.peek(1) is not None
        assert cache.peek(2) is not None

    def test_without_half_life_measured_benefit_wins_regardless_of_age(self):
        budget = vector_bytes(100) * 2
        governor = MemoryGovernor(budget)  # no decay configured
        cache = governed_cache(governor, "a")
        cache.put(0, vector(100), benefit_seconds=100.0)
        cache.put(1, vector(100), benefit_seconds=1.0)
        cache.peek(0).last_used_ts -= 1000.0
        assert cache.put(2, vector(100), benefit_seconds=1.0)
        # Undecayed: the high measured benefit keeps attr 0 resident and
        # the low-benefit attr 1 is the victim.
        assert cache.peek(0) is not None
        assert cache.peek(1) is None

    def test_decay_spans_structure_kinds(self):
        n = 100
        budget = vector_bytes(n) + int(offsets(n, 2).nbytes)
        governor = MemoryGovernor(budget, benefit_half_life_s=1.0)
        cache = governed_cache(governor, "a")
        pm = governed_map(governor, "b")
        # A stale-but-expensive map chunk vs a fresh cheap cache entry.
        pm.install((0, 1), offsets(n, 2), benefit_seconds=50.0)
        (chunk,) = pm.entries()
        chunk.last_used_ts -= 1000.0
        cache.put(0, vector(n), benefit_seconds=0.5)
        # New bytes need room: the decayed chunk is the cheapest loss.
        assert cache.put(1, vector(n), benefit_seconds=0.5)
        assert pm.chunk_count == 0
        assert cache.peek(0) is not None and cache.peek(1) is not None
