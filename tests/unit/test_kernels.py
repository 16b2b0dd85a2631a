"""Units for ``repro.kernels``: batch parser edges and fallback
identity, kernel-cache LRU eviction, and signature keying."""

import numpy as np
import pytest

from repro.datatypes import DataType, convert_column
from repro.errors import ConversionError
from repro.kernels import (
    ContentBuffer,
    KernelCache,
    convert_span,
    kernel_supported,
    make_signature,
)
from repro.rawio.dialect import CsvDialect
from repro.telemetry import MetricsRegistry


def _span(texts, base=0):
    """A ContentBuffer window at file offset ``base`` + the file-offset
    bounds laying out ``texts`` comma-joined."""
    cbuf = ContentBuffer(",".join(texts).encode(), base)
    starts, ends, pos = [], [], base
    for t in texts:
        size = len(t.encode())
        starts.append(pos)
        ends.append(pos + size)
        pos += size + 1
    return cbuf, np.array(starts), np.array(ends)


class TestConvertSpan:
    @pytest.mark.parametrize(
        "texts,dtype",
        [
            # Fast-path integers, including sign and padding edges.
            (["0", "-1", "+2", "00042", str(10**17 - 1)], "integer"),
            # Fallback integers: 18+ digits, whitespace, underscores.
            ([str(10**17), "-" + "9" * 18, " 7 ", "1_0"], "integer"),
            # Fast-path floats, including dot-first/dot-last edges.
            (["3.14", "-0.0", ".5", "5.", "0.000001", "12345.6789"],
             "float"),
            # Fallback floats: exponents, >15 digits, specials.
            (["1e5", "-2E-3", "9" * 16 + ".0", "inf", "nan"], "float"),
        ],
    )
    def test_matches_legacy_converter(self, texts, dtype):
        dt = DataType(dtype)
        cbuf, starts, ends = _span(texts)
        vector = convert_span(cbuf, starts, ends, dt)
        values, nulls = vector.values, vector.null_mask
        expected, exp_nulls = convert_column(texts, dt)
        assert np.array_equal(values, expected, equal_nan=True)
        assert np.array_equal(nulls, exp_nulls)

    def test_null_token_and_unicode_offsets(self):
        texts = ["１", "NULL", "42", "", "7"]
        cbuf, starts, ends = _span(texts)
        with pytest.raises(ConversionError) as kexc:
            convert_span(
                cbuf, starts, ends, DataType.INTEGER, null_token="NULL"
            )
        with pytest.raises(ConversionError) as lexc:
            convert_column(texts, DataType.INTEGER, null_token="NULL")
        assert str(kexc.value) == str(lexc.value)
        assert kexc.value.row == lexc.value.row

    def test_window_base_is_subtracted(self):
        texts = ["12", "-3.5", "NULL", "1e3"]
        cbuf, starts, ends = _span(texts, base=1_000_000)
        vector = convert_span(
            cbuf, starts, ends, DataType.FLOAT, null_token="NULL"
        )
        assert vector.values.tolist() == [12.0, -3.5, 0.0, 1000.0]
        assert vector.null_mask.tolist() == [False, False, True, False]
        assert cbuf.covers(1_000_000, 1_000_000 + len(cbuf.data))
        assert not cbuf.covers(999_999, 1_000_001)
        assert cbuf.byte_positions(",").tolist() == [
            1_000_002, 1_000_007, 1_000_012
        ]

    def test_error_row_offset(self):
        texts = ["1", "x", "3"]
        cbuf, starts, ends = _span(texts)
        with pytest.raises(ConversionError) as exc:
            convert_span(
                cbuf, starts, ends, DataType.INTEGER, row_offset=100
            )
        assert exc.value.row == 101
        assert "row 101" in str(exc.value)

    def test_float_values_bit_identical(self):
        texts = [f"{v / 997:.6f}" for v in range(-4000, 4000, 7)]
        cbuf, starts, ends = _span(texts)
        vector = convert_span(cbuf, starts, ends, DataType.FLOAT)
        assert vector.values.tolist() == [float(t) for t in texts]


class TestKernelCache:
    DIALECT = CsvDialect()
    DTYPES = (DataType.INTEGER, DataType.TEXT)

    def sig(self, first, last):
        return make_signature(self.DIALECT, self.DTYPES, first, last)

    def test_lru_eviction(self):
        cache = KernelCache(max_entries=2)
        s0, s1, s2 = self.sig(0, 0), self.sig(0, 1), self.sig(1, 1)
        cache.get(s0)
        cache.get(s1)
        cache.get(s0)  # s0 now most-recent
        cache.get(s2)  # evicts s1
        assert s1 not in cache
        assert s0 in cache and s2 in cache
        assert cache.evictions == 1
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["misses"] == 3
        assert stats["hits"] == 1

    def test_hit_returns_same_kernel_and_zero_build(self):
        cache = KernelCache()
        k1, built1 = cache.get(self.sig(0, 1))
        k2, built2 = cache.get(self.sig(0, 1))
        assert k1 is k2
        assert built1 > 0.0 and built2 == 0.0

    def test_signature_keying_distinguishes_spans_and_schemas(self):
        cache = KernelCache()
        k_a, _ = cache.get(self.sig(0, 1))
        k_b, _ = cache.get(self.sig(0, 0))
        other_schema = make_signature(
            self.DIALECT, (DataType.FLOAT, DataType.TEXT), 0, 1
        )
        k_c, _ = cache.get(other_schema)
        assert len({id(k_a), id(k_b), id(k_c)}) == 3
        # Equal inputs produce an equal (hashable) signature.
        assert self.sig(0, 1) == make_signature(
            self.DIALECT, self.DTYPES, 0, 1
        )

    def test_registry_counters(self):
        registry = MetricsRegistry(enabled=True)
        cache = KernelCache(max_entries=4, registry=registry)
        cache.get(self.sig(0, 1))
        cache.get(self.sig(0, 1))
        snap = registry.snapshot()
        assert snap["counters"]["kernel_cache_misses"] == 1
        assert snap["counters"]["kernel_cache_hits"] == 1
        assert snap["counters"]["kernel_build_seconds_total"] > 0.0


class TestKernelSupported:
    def test_quoted_dialect_keeps_legacy_path(self):
        assert kernel_supported(CsvDialect())
        assert not kernel_supported(CsvDialect(quote_char='"'))
        assert not kernel_supported(CsvDialect(delimiter="§"))
