"""Units for ``repro.kernels``: batch parser edges and fallback
identity, the CSV kernel's delimiter grid and when it declines,
kernel-cache LRU eviction, and signature keying."""

import numpy as np
import pytest

from repro import PostgresRaw, generate_csv, uniform_table_spec
from repro.datatypes import DataType, convert_column
from repro.errors import ConversionError, RawDataError
from repro.kernels import (
    ContentBuffer,
    KernelCache,
    ScanKernel,
    convert_span,
    kernel_supported,
    make_signature,
)
from repro.rawio.dialect import CsvDialect
from repro.rawio.tokenizer import build_line_index, tokenize_span
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
            (["0", "-1", "+2", "00042", str(10**16 - 1)], "integer"),
            # Fallback integers: 17+ digits, whitespace, underscores.
            (
                [str(10**16), str(10**17 - 1), "-" + "9" * 18, " 7 ", "1_0"],
                "integer",
            ),
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


class TestRowGrid:
    """The CSV kernel reads offsets off the window's delimiter grid, and
    returns ``None`` (the state machine's rows) when it cannot prove
    the grid."""

    DTYPES = (DataType.INTEGER,) * 4

    def kernel(self, first, last):
        signature = make_signature(CsvDialect(), self.DTYPES, first, last)
        return ScanKernel(signature)

    def rows(self, data, lo=0, hi=None):
        cbuf = ContentBuffer(data)
        bounds = build_line_index(data)
        hi = len(bounds) - 1 if hi is None else hi
        return cbuf, bounds[lo:hi], bounds[lo + 1 : hi + 1] - 1

    @pytest.mark.parametrize("first,last", [(0, 3), (0, 0), (1, 2), (3, 3)])
    @pytest.mark.parametrize("lo,hi", [(0, 3), (1, 3), (0, 2), (2, 3)])
    def test_offsets_equal_the_state_machine(self, first, last, lo, hi):
        data = b"1,22,333,4\n55,6,7,888\n9,10,11,12"
        cbuf, starts, ends = self.rows(data, lo, hi)
        if first:  # anchor on the state machine's own field starts
            starts = tokenize_span(
                data, starts, ends, 0, first, 4, CsvDialect()
            ).offsets[:, first]
        ours = self.kernel(first, last).tokenize(cbuf, starts, ends)
        theirs = tokenize_span(
            data, starts, ends, first, last, 4, CsvDialect()
        )
        assert np.array_equal(ours.offsets, theirs.offsets)

    @pytest.mark.parametrize(
        "data,row",
        [
            # A 5-field row then a 3-field one: the window's delimiter
            # count is regular, the rows are not.
            (b"1,2,3,4,5\n6,7,8\n9,10,11,12\n", 0),
            (b"1,2,3,4\n5,6,7\n8,9,10,11,12\n", 1),
            # A last row too long or too short: only the count tells.
            (b"1,2,3,4\n5,6,7,8,9", 1),
            (b"1,2,3,4\n5,6,7\n", 1),
        ],
    )
    def test_ragged_rows_are_declined(self, data, row):
        cbuf, starts, ends = self.rows(data)
        assert self.kernel(0, 3).tokenize(cbuf, starts, ends) is None
        with pytest.raises(RawDataError, match=f"row {row}: expected 4 "):
            tokenize_span(data, starts, ends, 0, 3, 4, CsvDialect())

    def test_anchors_the_grid_contradicts_are_declined(self):
        # Row 1's anchor is its line start, not attribute 1: the count
        # and each row's own delimiters fit, but row 1's leading
        # delimiter lies after its anchor.
        data = b"1,2,3,4\n5,6,7,8\n"
        cbuf, starts, ends = self.rows(data)
        starts = np.array([2, 8])
        assert self.kernel(1, 3).tokenize(cbuf, starts, ends) is None


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


def test_engine_scans_use_the_engine_kernel_cache(tmp_path):
    path = tmp_path / "t.csv"
    schema = generate_csv(path, uniform_table_spec(4, 100, seed=1))
    with PostgresRaw() as engine:
        engine.register_csv("t", path, schema)
        engine.query("SELECT a1 FROM t WHERE a2 > 0")
        # An empty cache is falsy; scans must still take the engine's.
        assert engine.service.kernel_cache.stats()["misses"] > 0


class TestKernelSupported:
    def test_quoted_dialect_keeps_legacy_path(self):
        assert kernel_supported(CsvDialect())
        assert not kernel_supported(CsvDialect(quote_char='"'))
        assert not kernel_supported(CsvDialect(delimiter="§"))
