"""Adaptive structures bound to (and registered with) a memory governor.

Every positional map and cache is admitted under a
:class:`repro.service.MemoryGovernor`; these helpers build one the way
the service does, for tests that exercise a structure without an
engine.  (``tests/`` is on ``sys.path`` through its ``conftest.py``.)
"""

from __future__ import annotations

from repro.core.cache import RawDataCache
from repro.core.positional_map import PositionalMap
from repro.service import MemoryGovernor


def governed_cache(
    governor: MemoryGovernor, table: str = "t"
) -> RawDataCache:
    cache = RawDataCache(governor)
    governor.register(cache, table, "cache")
    return cache


def governed_map(
    governor: MemoryGovernor, table: str = "t"
) -> PositionalMap:
    pm = PositionalMap(governor)
    governor.register(pm, table, "map")
    return pm
