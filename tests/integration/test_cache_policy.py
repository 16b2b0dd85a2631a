"""Cost-aware eviction (demo §4.2) under the memory governor.

"caching should give priority to attributes that are more expensive to
parse and cheaper to maintain in memory e.g. integer attributes"

Under memory pressure the governor must keep integer columns
(expensive ``int()`` conversion, 8 bytes/value) over wide text columns
(nearly free to re-slice, dozens of bytes/value), even when the
integer column is the least recently used.
"""

import numpy as np
import pytest

from governed import cache_bytes, governed_cache
from repro import (
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
)
from repro.batch import ColumnVector
from repro.errors import BudgetError
from repro.rawio.generator import ColumnSpec, DatasetSpec
from repro.service import MemoryGovernor


def _vec(n):
    return ColumnVector(
        DataType.INTEGER,
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.bool_),
    )


def _cache():
    return governed_cache(MemoryGovernor(cache_bytes(_vec(100)) * 2 + 64))


class TestPolicyUnit:
    def test_memory_budget_is_required(self):
        with pytest.raises(BudgetError):
            PostgresRawConfig(memory_budget=None)

    def test_cost_aware_evicts_low_value_density_first(self):
        cache = _cache()
        cache.put(0, _vec(100), benefit_seconds=0.5)   # valuable
        cache.put(1, _vec(100), benefit_seconds=0.001)  # cheap to redo
        cache.put(2, _vec(100), benefit_seconds=0.3)
        # Attr 1 has the lowest benefit/byte and must be the victim,
        # even though attr 0 is the least recently used.
        assert cache.cached_attrs() == [0, 2]

    def test_cost_aware_recency_tiebreak(self):
        cache = _cache()
        cache.put(0, _vec(100), benefit_seconds=0.1)
        cache.put(1, _vec(100), benefit_seconds=0.1)
        cache.put(2, _vec(100), benefit_seconds=0.1)
        assert cache.cached_attrs() == [1, 2]


@pytest.fixture(scope="module")
def int_vs_text_csv(tmp_path_factory):
    """One expensive-to-parse int column + two memory-heavy text columns."""
    path = tmp_path_factory.mktemp("policy") / "t.csv"
    spec = DatasetSpec(
        columns=(
            ColumnSpec("num", DataType.INTEGER, width=8),
            ColumnSpec("blob1", DataType.TEXT, width=60),
            ColumnSpec("blob2", DataType.TEXT, width=60),
        ),
        n_rows=6_000,
        seed=3,
    )
    schema = generate_csv(path, spec)
    return path, schema


class TestPolicyEndToEnd:
    def test_cost_aware_keeps_integer_column(self, int_vs_text_csv):
        path, schema = int_vs_text_csv
        # The budget fits the int column plus one text column, not all
        # three; the positional map is off so only the cache competes.
        engine = PostgresRaw(
            PostgresRawConfig(
                memory_budget=900_000, enable_positional_map=False
            )
        )
        engine.register_csv("t", path, schema)
        engine.query("SELECT num FROM t")    # oldest touch
        engine.query("SELECT blob1 FROM t")
        engine.query("SELECT blob2 FROM t")  # forces an eviction
        cache = engine.table_state("t").cache
        cached = {schema.columns[a].name for a in cache.cached_attrs()}
        assert "num" in cached  # survives despite being least recent
        assert len(cached) == 2
        assert engine.service.governor.evictions >= 1
