"""Behavioural tests for the RawScan operator: what gets learned,
cached, jumped over and charged where."""

import pytest

from repro import (
    Column,
    DataType,
    PostgresRaw,
    PostgresRawConfig,
    TableSchema,
    append_csv_rows,
    append_jsonl_rows,
    generate_csv,
    uniform_table_spec,
    write_csv,
    write_jsonl,
)
from repro.errors import RawDataError
from repro.rawio.dialect import CsvDialect
from repro.rawio.reader import RawFileReader


@pytest.fixture
def fresh(tmp_path):
    """Factory: a new engine over a fresh 2000x8 file per test."""

    def make(config=None, n_attrs=8, n_rows=2000):
        path = tmp_path / f"t_{n_attrs}x{n_rows}.csv"
        schema = generate_csv(
            path, uniform_table_spec(n_attrs, n_rows, seed=17)
        )
        eng = PostgresRaw(config)
        eng.register_csv("t", path, schema)
        return eng

    return make


class TestPositionalMapLearning:
    def test_map_learns_along_the_way(self, fresh):
        """Requesting attr 5 records positions 0..5(+1) — 'all positions
        from 1 to 15 may be kept'."""
        eng = fresh()
        eng.query("SELECT a5 FROM t")
        chunks = eng.table_state("t").positional_map.describe()
        assert chunks[0]["attrs"] == (0, 1, 2, 3, 4, 5, 6)

    def test_last_attr_has_no_sentinel(self, fresh):
        eng = fresh()
        eng.query("SELECT a7 FROM t")
        chunks = eng.table_state("t").positional_map.describe()
        assert chunks[0]["attrs"] == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_second_query_uses_map_not_tokenizer(self, fresh):
        eng = fresh()
        eng.query("SELECT a3 FROM t")
        r2 = eng.query("SELECT a2 FROM t")  # inside the learned span
        assert r2.metrics.tokenizing_seconds == 0.0
        assert r2.metrics.fields_tokenized == 0
        assert r2.metrics.fields_parsed_via_map > 0

    def test_anchor_jump_tokenizes_only_gap(self, fresh):
        eng = fresh()
        eng.query("SELECT a2 FROM t")  # map knows 0..3
        r2 = eng.query("SELECT a5 FROM t")  # anchor at 3, tokenize 3..5
        n_rows = 2000
        assert r2.metrics.fields_tokenized == n_rows * 3  # attrs 3,4,5

    def test_combination_policy_builds_requested_chunk(self, fresh):
        eng = fresh()
        eng.query("SELECT a1 FROM t")
        eng.query("SELECT a6 FROM t")  # separate chunk (anchored)
        pm = eng.table_state("t").positional_map
        before = {c.attrs for c in pm.entries()}
        eng.query("SELECT a1, a6 FROM t")  # attrs in different chunks
        after = {c.attrs for c in pm.entries()}
        assert (1, 6) in after - before

    def test_combination_policy_disabled(self, fresh):
        eng = fresh(
            PostgresRawConfig(pm_combination_policy=False)
        )
        eng.query("SELECT a1 FROM t")
        eng.query("SELECT a6 FROM t")
        eng.query("SELECT a1, a6 FROM t")
        pm = eng.table_state("t").positional_map
        assert (1, 6) not in {c.attrs for c in pm.entries()}

    def test_pm_disabled_never_learns(self, fresh):
        eng = fresh(PostgresRawConfig(enable_positional_map=False))
        eng.query("SELECT a3 FROM t")
        r2 = eng.query("SELECT a3 FROM t")
        # Without a map (or cache hit) tokenizing repeats in full.
        assert eng.table_state("t").positional_map.chunk_count == 0


class TestCacheBehavior:
    def test_full_scan_populates_cache(self, fresh):
        eng = fresh()
        eng.query("SELECT a1 FROM t")
        cache = eng.table_state("t").cache
        assert cache.coverage_rows(1) == 2000

    def test_cached_query_reads_no_bytes(self, fresh):
        eng = fresh()
        eng.query("SELECT a1 FROM t")
        r2 = eng.query("SELECT a1 FROM t")
        assert r2.metrics.bytes_read == 0
        assert r2.metrics.io_seconds == 0.0
        assert r2.metrics.convert_seconds == 0.0

    def test_only_requested_attributes_cached(self, fresh):
        eng = fresh()
        eng.query("SELECT a4 FROM t")
        cache = eng.table_state("t").cache
        # a0..a3 were tokenized along the way but never converted.
        assert cache.cached_attrs() == [4]

    def test_selective_formation_does_not_cache_projection(self, fresh):
        eng = fresh()
        # ~10% selectivity: projection attr converted only for matches.
        eng.query("SELECT a5 FROM t WHERE a0 < 100000")
        cache = eng.table_state("t").cache
        assert 0 in cache.cached_attrs()  # predicate column: full
        assert 5 not in cache.cached_attrs()

    def test_eager_formation_caches_projection(self, fresh):
        eng = fresh(PostgresRawConfig(selective_tuple_formation=False))
        eng.query("SELECT a5 FROM t WHERE a0 < 100000")
        assert 5 in eng.table_state("t").cache.cached_attrs()

    def test_cache_disabled(self, fresh):
        eng = fresh(PostgresRawConfig(enable_cache=False))
        eng.query("SELECT a1 FROM t")
        assert eng.table_state("t").cache.entry_count == 0


class TestSelectiveKnobs:
    def test_selective_tokenizing_off_tokenizes_full_tuple(self, fresh):
        eng_on = fresh()
        r_on = eng_on.query("SELECT a1 FROM t")
        assert r_on.metrics.fields_tokenized == 2000 * 2  # attrs 0,1

        eng_off = fresh(PostgresRawConfig(selective_tokenizing=False))
        r = eng_off.query("SELECT a1 FROM t")
        assert r.metrics.fields_tokenized == 2000 * 8  # whole tuples

    def test_selective_parsing_off_converts_everything(self, fresh):
        eng = fresh(PostgresRawConfig(selective_parsing=False))
        r = eng.query("SELECT a5 FROM t")
        # attrs 0..5 tokenized; all converted although only a5 needed.
        assert r.metrics.fields_converted == 2000 * 6

    def test_selective_parsing_on_converts_only_needed(self, fresh):
        eng = fresh()
        r = eng.query("SELECT a5 FROM t")
        assert r.metrics.fields_converted == 2000

    def test_statistics_only_on_requested(self, fresh):
        eng = fresh()
        eng.query("SELECT a2 FROM t WHERE a1 > 0")
        stats = eng.table_state("t").statistics
        assert set(stats.attribute_names()) == {"a1", "a2"}

    def test_statistics_disabled(self, fresh):
        eng = fresh(PostgresRawConfig(enable_statistics=False))
        eng.query("SELECT a2 FROM t")
        assert eng.table_state("t").statistics.attribute_names() == []


class TestCounters:
    def test_cache_hit_miss_counters(self, fresh):
        eng = fresh()
        r1 = eng.query("SELECT a1 FROM t")
        assert r1.metrics.cache_hits == 0
        assert r1.metrics.cache_misses >= 1
        r2 = eng.query("SELECT a1 FROM t")
        assert r2.metrics.cache_hits >= 1
        assert r2.metrics.cache_misses == 0

    def test_pm_hit_counters(self, fresh):
        eng = fresh(PostgresRawConfig(enable_cache=False))
        eng.query("SELECT a1 FROM t")
        r2 = eng.query("SELECT a1 FROM t")
        assert r2.metrics.pm_chunk_hits >= 1

    def test_usage_tracking(self, fresh):
        eng = fresh()
        eng.query("SELECT a1 FROM t WHERE a0 > 0")
        eng.query("SELECT a1 FROM t")
        usage = eng.table_state("t").attribute_usage
        assert usage[1] == 2
        assert usage[0] == 1


class TestLimitsAndPartialScans:
    def test_limit_query_learns_prefix(self, fresh):
        eng = fresh(PostgresRawConfig(batch_size=256))
        eng.query("SELECT a1 FROM t LIMIT 10")
        pm = eng.table_state("t").positional_map
        assert 0 < pm.coverage_rows(1) < 2000

    def test_prefix_then_full(self, fresh):
        eng = fresh(PostgresRawConfig(batch_size=256))
        eng.query("SELECT a1 FROM t LIMIT 10")
        result = eng.query("SELECT COUNT(a1) AS n FROM t")
        assert result.scalar() == 2000
        assert eng.table_state("t").cache.coverage_rows(1) == 2000


class TestCorrectnessUnderConfigs:
    @pytest.mark.parametrize(
        "config",
        [
            PostgresRawConfig(),
            PostgresRawConfig.baseline(),
            PostgresRawConfig.pm_only(),
            PostgresRawConfig.cache_only(),
            PostgresRawConfig(selective_tokenizing=False),
            PostgresRawConfig(selective_parsing=False),
            PostgresRawConfig(selective_tuple_formation=False),
            PostgresRawConfig(batch_size=77),
        ],
        ids=[
            "full",
            "baseline",
            "pm_only",
            "cache_only",
            "no_sel_tok",
            "no_sel_parse",
            "no_sel_form",
            "odd_batch",
        ],
    )
    def test_same_answers_any_config(self, fresh, config):
        eng = fresh(config)
        queries = [
            "SELECT a0, a5 FROM t WHERE a2 < 300000 ORDER BY a0 LIMIT 7",
            "SELECT COUNT(*) AS n FROM t WHERE a1 BETWEEN 100000 AND 500000",
            "SELECT SUM(a3) AS s FROM t",
        ]
        expected = [
            list(fresh(PostgresRawConfig()).query(q)) for q in queries
        ]
        for q, exp in zip(queries, expected):
            # Run twice: cold and warm must agree.
            assert list(eng.query(q)) == exp
            assert list(eng.query(q)) == exp


# ----------------------------------------------------------------------
# Byte-addressed raw access: a scan reads the byte ranges its plan
# needs — never "the file" once the line index is known.
# ----------------------------------------------------------------------

FACTS = TableSchema(
    [
        Column("id", DataType.INTEGER),
        Column("amount", DataType.INTEGER),
        Column("note", DataType.TEXT),
    ]
)


@pytest.fixture
def record_reads(monkeypatch):
    """Every ``RawFileReader.read_range`` call as ``(start, end)``."""
    reads = []
    original = RawFileReader.read_range

    def recording(self, start, end):
        reads.append((start, end))
        return original(self, start, end)

    monkeypatch.setattr(RawFileReader, "read_range", recording)
    return reads


class TestByteRangeReads:
    def test_warm_point_reads_one_record_not_the_file(
        self, tmp_path, record_reads
    ):
        path = tmp_path / "facts.csv"
        n = 80_000
        write_csv(
            path, [(i, i * 7 % 1000, f"note-{i:09d}") for i in range(n)], FACTS
        )
        eng = PostgresRaw()
        eng.register_csv("t", path, FACTS)
        sql = "SELECT id, amount, note FROM t WHERE id = {}"
        cold = eng.query(sql.format(5))
        assert cold.metrics.bytes_read == path.stat().st_size  # once
        del record_reads[:]
        warm = eng.query(sql.format(61_234))
        assert warm.rows == [(61_234, 61_234 * 7 % 1000, "note-000061234")]
        assert warm.metrics.fields_tokenized == 0
        # One positioned read of the one selected record, shared by
        # both projected attributes; no whole-file buffer anywhere.
        assert 0 < warm.metrics.bytes_read < 4096
        assert len(record_reads) == 1
        (start, end), = record_reads
        assert path.read_bytes()[start:end] == b"61234,638,note-000061234"
        eng.close()

    def test_no_qualifying_row_reads_nothing(self, tmp_path, record_reads):
        path = tmp_path / "facts.csv"
        write_csv(path, [(i, i, f"n{i}") for i in range(500)], FACTS)
        eng = PostgresRaw()
        eng.register_csv("t", path, FACTS)
        eng.query("SELECT note FROM t WHERE id = 3")
        del record_reads[:]
        assert eng.query("SELECT note FROM t WHERE id = -1").rows == []
        assert record_reads == []
        eng.close()

    def test_all_cached_query_never_constructs_a_reader(
        self, fresh, monkeypatch
    ):
        import repro.core.raw_scan as raw_scan_mod

        eng = fresh()
        expected = eng.query("SELECT a1, a2 FROM t").rows

        def no_reader(*args, **kwargs):
            raise AssertionError("raw file opened on an all-cached scan")

        monkeypatch.setattr(raw_scan_mod, "RawFileReader", no_reader)
        assert eng.query("SELECT a1, a2 FROM t").rows == expected
        assert eng.query("SELECT a2 FROM t WHERE a1 >= 0").rows == [
            (r[1],) for r in expected
        ]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_append_reads_only_the_tail(self, tmp_path, fmt, record_reads):
        """Regression: indexing a pending append went through the whole
        content to look at ``content[tail_start:]``."""
        path = tmp_path / f"t.{fmt}"
        rows = [(i, i * 10, f"s{i}") for i in range(5_000)]
        tail = [(5_000 + i, i, f"t{i}") for i in range(20)]
        eng = PostgresRaw()
        if fmt == "csv":
            write_csv(path, rows, FACTS)
            eng.register_csv("t", path, FACTS)
        else:
            write_jsonl(path, rows, FACTS)
            eng.register_jsonl("t", path, FACTS)
        sql = "SELECT id, amount, note FROM t WHERE id >= 0"
        for _ in range(2):
            eng.query(sql)  # warmed: every attribute cached
        old_size = path.stat().st_size
        if fmt == "csv":
            append_csv_rows(path, tail, FACTS)
        else:
            append_jsonl_rows(path, tail, FACTS)
        tail_size = path.stat().st_size - old_size
        del record_reads[:]
        result = eng.query(sql)
        assert result.rows == rows + tail
        # One read: the last known record's terminator, then the tail.
        assert record_reads == [(old_size - 1, old_size + tail_size)]
        assert result.metrics.bytes_read == tail_size + 1
        eng.close()

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "first, separator, second",
        [
            (b"\r\n", b"\r\n", b"\r\n"),  # CRLF file, CRLF appender
            (b"\n", b"\r\n", b"\n"),  # only the separator is CRLF
            (b"\r\n", b"\n", b"\n"),  # CRLF file, LF appender
            (b"\n", b"\n", b"\r\n"),  # LF file, CRLF rows
        ],
    )
    def test_append_after_unterminated_last_record(
        self, tmp_path, fmt, batch_size, first, separator, second
    ):
        """Growth after an unterminated last record is a rewrite: the
        separator that closes it (a ``\\r\\n`` included) makes no
        phantom empty record, cold or warm, whether the closed record
        ends a batch of its own or shares one."""
        if fmt == "csv":
            lines = [b"%d,%d,n%d" % (i, i * 2, i) for i in range(8)]
        else:
            lines = [
                b'{"id": %d, "amount": %d, "note": "n%d"}' % (i, i * 2, i)
                for i in range(8)
            ]
        expected = [(i, i * 2, f"n{i}") for i in range(8)]
        path = tmp_path / f"t.{fmt}"
        path.write_bytes(first.join(lines[:5]))  # no final terminator
        eng = PostgresRaw(PostgresRawConfig(batch_size=batch_size))
        if fmt == "csv":
            dialect = CsvDialect(has_header=False)
            eng.register_csv("t", path, FACTS, dialect)
        else:
            eng.register_jsonl("t", path, FACTS)
        sql = "SELECT id, amount, note FROM t"
        assert eng.query(sql).rows == expected[:5]
        with open(path, "ab") as f:
            f.write(separator + second.join(lines[5:]) + second)
        assert eng.query("SELECT COUNT(*) AS n FROM t").rows == [(8,)]
        assert eng.query(sql).rows == expected
        assert eng.query(sql).rows == expected  # warm: map and cache
        eng.close()


#: One dialect per tokenizer: the scan kernel, and the state machine
#: for a quoted dialect over the same quote-free bytes.
DIALECTS = [CsvDialect(), CsvDialect(quote_char='"')]
DIALECT_IDS = ["kernel", "quoted"]


class TestMalformedRows:
    """A row with too few or too many fields fails the same way, with
    the same text and table row, whichever tokenizer the dialect picks
    and whichever batch the row falls in."""

    SCHEMA = TableSchema.from_pairs(
        [("a", "integer"), ("b", "integer"), ("c", "integer")]
    )
    SHORT = "1,2,3\n4,5\n7,8,9\n"
    LONG = "1,2,3\n4,5,6,99\n7,8,9\n"
    EXPECTED = {
        ("SHORT", "a"): [(1,), (4,), (7,)],
        ("SHORT", "b"): "row 1: expected at least 3 fields from "
        "attribute 0, found 2",
        ("SHORT", "c"): "row 1: expected 3 fields from attribute 0, found 2",
        ("LONG", "a"): [(1,), (4,), (7,)],
        ("LONG", "b"): [(2,), (5,), (8,)],
        ("LONG", "c"): "row 1: expected 3 fields from attribute 0, found 4",
    }

    @pytest.mark.parametrize(
        "dialect",
        DIALECTS + [CsvDialect(delimiter="§")],
        ids=DIALECT_IDS + ["section_sign"],
    )
    @pytest.mark.parametrize("body", ["SHORT", "LONG"])
    @pytest.mark.parametrize("column", ["a", "b", "c"])
    @pytest.mark.parametrize("batch_size", [1, 4096])
    def test_same_outcome_per_dialect(
        self, tmp_path, dialect, body, column, batch_size
    ):
        path = tmp_path / "t.csv"
        text = "a,b,c\n" + getattr(self, body)
        path.write_text(text.replace(",", dialect.delimiter), "utf-8")
        with PostgresRaw(PostgresRawConfig(batch_size=batch_size)) as eng:
            eng.register_csv("t", path, self.SCHEMA, dialect)
            expected = self.EXPECTED[body, column]
            sql = f"SELECT {column} FROM t"
            if isinstance(expected, list):
                assert eng.query(sql).rows == expected
                return
            with pytest.raises(RawDataError) as info:
                eng.query(sql)
            assert str(info.value) == expected
            assert info.value.row == 1


def _invalid_utf8_csv(path, n_rows=400, bad_row=257):
    """``k,s,v`` rows; the TEXT field of ``bad_row`` holds a lone 0xFF."""
    lines = [b"k,s,v\n"]
    for i in range(n_rows):
        s = b"caf\xff" if i == bad_row else "café".encode()
        lines.append(b"%d,%s,%d\n" % (i, s, i * 3))
    path.write_bytes(b"".join(lines))
    return TableSchema(
        [
            Column("k", DataType.INTEGER),
            Column("s", DataType.TEXT),
            Column("v", DataType.INTEGER),
        ]
    )


class TestLazyDecode:
    """An undecodable byte fails the field that holds it, not the table."""

    @pytest.mark.parametrize("dialect", DIALECTS, ids=DIALECT_IDS)
    def test_serial_names_the_row(self, tmp_path, dialect):
        path = tmp_path / "t.csv"
        schema = _invalid_utf8_csv(path)
        eng = PostgresRaw()
        eng.register_csv("t", path, schema, dialect)
        # Cold: tokenizes across the TEXT column without decoding it.
        assert eng.query("SELECT v FROM t").rows == [
            (i * 3,) for i in range(400)
        ]
        # Rows that do not hold the byte are readable too.
        assert eng.query("SELECT s FROM t WHERE k = 5").rows == [("café",)]
        # Warm (map jump) and cold (fresh engine) both name row 257.
        cold = PostgresRaw()
        cold.register_csv("t", path, schema, dialect)
        for engine in (eng, cold):
            with pytest.raises(RawDataError, match="not valid UTF-8") as info:
                engine.query("SELECT s FROM t")
            assert info.value.row == 257
            assert "row 257" in str(info.value)
            engine.close()

    def test_cold_error_names_the_file_offset(self, tmp_path):
        path = tmp_path / "t.csv"
        schema = _invalid_utf8_csv(path)
        with PostgresRaw(PostgresRawConfig(batch_size=64)) as eng:
            eng.register_csv("t", path, schema)
            assert eng.query("SELECT v FROM t").rows == [
                (i * 3,) for i in range(400)
            ]
        with PostgresRaw(PostgresRawConfig(batch_size=64)) as eng:
            eng.register_csv("t", path, schema)
            with pytest.raises(RawDataError, match="not valid UTF-8") as info:
                eng.query("SELECT s FROM t")
            # The byte offset is the file's, and the row the table's.
            offset = path.read_bytes().index(b"caf\xff")
            assert info.value.offset == offset
            assert f"byte offset {offset}" in str(info.value)
            assert info.value.row == 257
            assert str(info.value).startswith("row 257: ")
