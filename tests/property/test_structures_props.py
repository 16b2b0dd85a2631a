"""Property-based invariants for the adaptive structures and the B+-tree."""

import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from governed import (
    cache_bytes,
    count_signature,
    governed_cache,
    governed_map,
    governed_store,
    mv_entry,
    synopsis_bytes,
)
from repro.batch import ColumnVector
from repro.core.metrics import QueryMetrics
from repro.datatypes import DataType
from repro.mv import MVCatalog, MVMatch
from repro.service import MemoryGovernor
from repro.storage.btree import BPlusTree
from repro.telemetry.registry import MetricsRegistry


def _vec(n):
    return ColumnVector(
        DataType.INTEGER,
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.bool_),
    )


def _offsets(rows, attrs):
    return np.arange(rows * attrs, dtype=np.int64).reshape(rows, attrs)


class _Engine:
    """Every governed kind of table ``t`` — cache, positional map,
    columnstore, MVs — plus table ``u``'s cache, under one governor,
    registered, rewritten and dropped the way the service does it."""

    def __init__(self, budget: int, root: Path) -> None:
        self.governor = MemoryGovernor(budget)
        self.root = root
        self.catalog = MVCatalog(MetricsRegistry(), self.governor)
        self.other = governed_cache(self.governor, "u")
        self._register()

    def _register(self) -> None:
        self.cache = governed_cache(self.governor)
        self.pm = governed_map(self.governor)
        self.store = governed_store(self.governor, self.root)

    def rewrite(self) -> None:
        self.cache.invalidate()
        self.pm.invalidate()
        self.store.invalidate()
        self.catalog.invalidate_table("t")

    def drop(self) -> None:
        self.governor.unregister_table("t")
        self.catalog.drop_table("t")
        self.store.invalidate()
        self._register()

    def ledgers(self) -> list:
        mvs = self.catalog._tables.get("t")
        return [self.cache, self.pm, self.store, self.other] + (
            [mvs] if mvs is not None else []
        )

    def ledger(self, kind: str):
        return {
            "cache": self.cache,
            "map": self.pm,
            "columnstore": self.store,
            "mv": self.catalog._tables.get("t"),
        }[kind]

    @staticmethod
    def token(kind: str, key):
        """A map key is already its chunk's ``attrs``."""
        return count_signature(f"d{key}") if kind == "mv" else key

    def resident(self, kind: str, key: int):
        ledger = self.ledger(kind)
        return None if ledger is None else ledger.peek(self.token(kind, key))

    def needed(self, action, kind, key, n, before) -> int:
        """Bytes the entry holds after an admit or grow: more than the
        budget is the only reason either may be refused, because the
        governor may evict every other entry to make room.  Cache and
        columnstore entries hold their synopsis too."""
        if action == "grow" and kind in ("cache", "columnstore"):
            rows = before.rows + n
            extra = _vec(n).values.nbytes + synopsis_bytes(rows)
            extra -= synopsis_bytes(before.rows)
            if kind == "cache":
                extra += _vec(n).null_mask.nbytes
        elif kind == "cache":
            extra = cache_bytes(_vec(n))
        elif kind == "map":
            extra = _offsets(n, len(key)).nbytes
        elif kind == "mv":
            extra = mv_entry(count_signature("d"), n).nbytes
        else:
            saved = io.BytesIO()
            np.save(saved, _vec(n).values)
            extra = len(saved.getvalue()) + synopsis_bytes(n)
        return extra + (before.nbytes if action == "grow" else 0)

    def column_files(self, key: int) -> dict[str, int]:
        directory = self.root / f"t-{key}-c{key}"
        return {p.name: p.stat().st_size for p in directory.glob("*")}

    def apply(self, action, kind, key, n, benefit):
        """One operation; ``False`` when an admit or grow was refused."""
        if action == "admit":
            if kind == "cache":
                return self.cache.put(key, _vec(n), benefit_seconds=benefit)
            if kind == "map":
                chunk = self.pm.install(
                    key, _offsets(n, len(key)), benefit_seconds=benefit
                )
                return chunk is not None
            if kind == "columnstore":
                return self.store.promote(
                    key, f"c{key}", DataType.INTEGER, _vec(n), benefit
                )
            sig = self.token(kind, key)
            return self.catalog.install(mv_entry(sig, n, benefit))
        entry = self.resident(kind, key)
        if entry is None:
            return None
        if action == "grow":
            if kind == "cache":
                return self.cache.extend(key, _vec(n))
            if kind == "map":
                return self.pm.extend(entry, _offsets(n, len(entry.attrs)))
            if kind == "columnstore":
                return self.store.extend(key, _vec(n))
            grown = mv_entry(entry.signature, entry.rows + n)
            return self.catalog.advance(
                entry, entry.rows, grown.batch, entry.rows + n
            )
        if action == "touch":
            if kind == "cache":
                self.cache.get(key)
            elif kind == "map":
                self.pm.touch(entry)
            elif kind == "columnstore":
                metrics = QueryMetrics()
                column = self.store.pin(key, entry.rows, metrics)
                self.store.read(column, 0, entry.rows, None, metrics)
            else:
                self.catalog.note_served(
                    MVMatch(entry, "exact", entry.batch, entry.rows)
                )
            return None
        self.ledger(kind).governed_evict(self.token(kind, key))
        return None


def _ops(kinds, keys):
    return st.tuples(
        st.sampled_from(
            ("admit",) * 4 + ("grow",) * 3 + ("touch",) * 2
            + ("evict", "rewrite", "drop")
        ),
        kinds,
        keys,
        st.integers(1, 80),
        st.sampled_from((0.0, 0.0, 0.25, 1.0)),
    )


#: Map chunks cover ``(first, width)`` windows over attrs 0..7, so
#: installs meet exact, nested, overlapping and disjoint chunks.
windows = st.tuples(st.integers(0, 5), st.integers(1, 3)).map(
    lambda fw: tuple(range(fw[0], fw[0] + fw[1]))
)

#: One op: ``(action, kind, key, rows, benefit)``; ``rows`` is the new
#: entry's rows for an admit and the tail's for a grow.  About half the
#: ops are map ops.  Rewrites and drops (which ignore the rest) are rare
#: so that state builds up; benefits come from a few values so that
#: densities tie.
ledger_ops = st.lists(
    st.one_of(
        _ops(st.just("map"), windows),
        _ops(
            st.sampled_from(("cache", "columnstore", "mv")),
            st.integers(0, 1),
        ),
    ),
    min_size=10,
    max_size=60,
)


def _check_admitted(eng, kind, key, n, before, rows):
    """A successful cache put or map install: the key is covered at
    least ``n`` rows deep, a shallower admit keeps the deeper entry, and
    a new entry holds exactly what was admitted."""
    after = eng.resident(kind, key)
    if before is not None and rows >= n:
        assert after is before and after.rows == rows
    elif kind == "cache":
        assert after.vector.to_pylist() == list(range(n))
    elif after is not None:
        assert np.array_equal(after.offsets, _offsets(n, len(key)))
    if kind == "map":
        assert all(eng.pm.coverage_rows(a) >= n for a in key)


@given(budget=st.integers(0, 6000), ops=ledger_ops)
@settings(max_examples=300, deadline=None)
def test_every_governed_kind_shares_one_ledger_discipline(budget, ops):
    """Cache, map, columnstore and MVs under one governor: it charges
    exactly what they hold and never more than its budget, a refused
    admit or grow keeps the prior entry (and its files), a rewrite or
    drop leaves the table nothing, and victims come cheapest first,
    least recently used first among equals."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        eng = _Engine(budget, root)
        for op in ops:
            if op[0] == "rewrite":
                eng.rewrite()
            elif op[0] == "drop":
                eng.drop()
            if op[0] in ("rewrite", "drop"):
                assert not any(
                    r["nbytes"]
                    for r in eng.governor.residency()
                    if r["table"] == "t"
                )
                assert list(root.iterdir()) == []
                continue
            action, kind, key = op[:3]
            before = eng.resident(kind, key)
            rows = None if before is None else before.rows
            files = eng.column_files(key) if kind == "columnstore" else None
            cover = [eng.pm.coverage_rows(a) for a in range(8)]
            evictions = eng.governor.evictions
            outcome = eng.apply(*op)
            if action != "evict" and eng.governor.evictions == evictions:
                # Subsumption only ever drops what a deeper chunk covers.
                assert all(
                    eng.pm.coverage_rows(a) >= c for a, c in enumerate(cover)
                )
            if outcome is False:
                assert eng.needed(action, kind, key, op[3], before) > budget
                assert eng.resident(kind, key) is before
                assert before is None or before.rows == rows
                if kind == "columnstore":
                    assert eng.column_files(key) == files
            elif outcome and action == "admit" and kind in ("cache", "map"):
                _check_admitted(eng, kind, key, op[3], before, rows)
            elif outcome and action == "grow":
                assert eng.resident(kind, key) is before
                assert before.rows == rows + op[3]

            resident = [e for led in eng.ledgers() for e in led.entries()]
            held = sum(e.nbytes for e in resident)
            assert eng.governor.used_bytes == held <= budget
            # The columnstore charges exactly the files it keeps and
            # their zone maps.
            assert {p.name for p in root.iterdir()} == {
                c.store.directory.name for c in eng.store.entries()
            }
            assert eng.store.used_bytes == sum(
                p.stat().st_size for p in root.rglob("*.npy")
            ) + sum(c.store.zone_bytes() for c in eng.store.entries())
            order = [
                (i.value_density, i.last_used_ts)
                for i in eng.governor._victim_order(None, set())
            ]
            assert order == sorted(
                (e.benefit_seconds / max(e.nbytes, 1), e.last_used_ts)
                for e in resident
            )
    # Lookup structures stay internally consistent.
    for attr in range(8):
        chunk = eng.pm.best_cover(attr)
        if chunk is not None:
            assert attr in chunk.attrs
            assert chunk.rows >= 1


@given(
    keys=st.lists(
        st.one_of(st.integers(-100, 100), st.none()), max_size=300
    ),
    probes=st.lists(st.integers(-120, 120), max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_btree_matches_linear_scan(keys, probes):
    tree = BPlusTree.bulk_build(keys, order=8)
    tree.validate()
    for probe in probes:
        expected = sorted(
            i for i, k in enumerate(keys) if k == probe
        )
        assert tree.search_eq(probe).tolist() == expected


@given(
    keys=st.lists(st.integers(-50, 50), max_size=200),
    low=st.integers(-60, 60),
    span=st.integers(0, 40),
    li=st.booleans(),
    hi_inc=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_btree_range_matches_linear_scan(keys, low, span, li, hi_inc):
    high = low + span
    tree = BPlusTree.bulk_build(keys, order=6)
    expected = sorted(
        i
        for i, k in enumerate(keys)
        if (k > low or (k == low and li))
        and (k < high or (k == high and hi_inc))
    )
    got = tree.search_range(
        low, high, low_inclusive=li, high_inclusive=hi_inc
    ).tolist()
    assert got == expected


@given(
    initial=st.lists(st.integers(0, 60), max_size=120),
    inserts=st.lists(st.integers(0, 60), max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_btree_insert_preserves_invariants(initial, inserts):
    tree = BPlusTree.bulk_build(initial, order=5)
    for j, key in enumerate(inserts):
        tree.insert(key, len(initial) + j)
    tree.validate()
    all_keys = initial + inserts
    for probe in set(all_keys):
        expected = sorted(i for i, k in enumerate(all_keys) if k == probe)
        assert tree.search_eq(probe).tolist() == expected
