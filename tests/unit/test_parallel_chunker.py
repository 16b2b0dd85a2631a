"""Unit tests for how a parallel scan cuts its rows
(repro.parallel.chunker)."""

from pathlib import Path

import pytest

from repro import PostgresRawConfig
from repro.catalog.catalog import RawTableEntry
from repro.catalog.schema import TableSchema
from repro.core.metrics import QueryMetrics
from repro.core.raw_scan import RawScan
from repro.core.table_state import RawTableState
from repro.errors import RawDataError
from repro.parallel.chunker import chunk_count, row_cuts
from repro.rawio.dialect import CsvDialect
from repro.rawio.tokenizer import build_line_index

BATCH = 8


def _lines(n, width=20):
    return "".join(f"row{i:06d}," + "x" * width + "\n" for i in range(n))


def _cut(data, target, tail_from=0):
    """The line index of ``data`` (one header line) and the pool's row
    cuts of its rows from ``tail_from``."""
    bounds = build_line_index(data, has_header=True)
    n_rows = len(bounds) - 1
    return bounds, row_cuts(bounds, tail_from, n_rows, BATCH, target)


def _ranges(bounds, cuts):
    """The byte range each chunk's worker reads."""
    return [
        (int(bounds[r0]), int(bounds[r1]) - 1)
        for r0, r1 in zip(cuts[:-1], cuts[1:])
    ]


class TestChunkCount:
    def test_small_files_stay_whole(self):
        assert chunk_count(100, 1000, 8) == 1

    def test_capped_by_workers(self):
        assert chunk_count(10_000, 10, 4) == 4

    def test_target_bounds_chunk_count(self):
        assert chunk_count(10_000, 2_500, 64) == 4

    def test_degenerate_sizes(self):
        assert chunk_count(0, 100, 4) == 1
        assert chunk_count(100, 0, 4) == 1


class TestFileChunks:
    def test_chunks_cover_file_exactly(self):
        data = ("h\n" + _lines(500)).encode()
        for tail_from in (0, 208):  # a cold scan; a tail after a prefix
            bounds, cuts = _cut(data, len(data) // 4, tail_from)
            assert len(cuts) > 2
            assert cuts[0] == tail_from and cuts[-1] == 500
            assert cuts == sorted(set(cuts))
            ranges = _ranges(bounds, cuts)
            # Each range stops short of its last row's newline: ranges
            # and newlines re-create the rows from ``tail_from`` on.
            rest = data[int(bounds[tail_from]) :]
            assert b"".join(data[a : b + 1] for a, b in ranges) == rest

    def test_boundaries_follow_newlines(self):
        data = ("h\n" + _lines(500)).encode()
        bounds, cuts = _cut(data, len(data) // 3)
        for cut in cuts[1:-1]:
            assert cut % BATCH == 0
            assert data[bounds[cut] - 1 : bounds[cut]] == b"\n"

    def test_crlf_pair_never_split(self):
        data = b"h\r\n" + b"".join(b"val%06d,yy\r\n" % i for i in range(500))
        bounds, cuts = _cut(data, len(data) // 4)
        assert len(cuts) > 2
        for a, b in _ranges(bounds, cuts):
            # A cut sits just after \n, so it can't land between \r and
            # \n; each range ends on its last row's \r.
            assert data[a - 1 : a] == b"\n" and data[a : a + 1] != b"\n"
            assert data[b - 1 : b + 1] == b"\r\n"

    def test_unterminated_final_record_stays_in_last_chunk(self):
        data = ("h\n" + _lines(100) + "tail_without_newline").encode()
        bounds, cuts = _cut(data, len(data) // 3)
        assert len(cuts) > 2
        a, b = _ranges(bounds, cuts)[-1]
        assert b == len(data)
        assert data[a:b].endswith(b"\ntail_without_newline")

    def test_one_giant_line_collapses_to_single_chunk(self):
        data = b"h\n" + b"a" * 10_000  # no newline after the header
        bounds, cuts = _cut(data, 1_000)
        assert cuts == [0, 1]
        assert _ranges(bounds, cuts) == [(2, len(data))]

    def test_missing_file_raises(self, tmp_path):
        # The line index is read on the calling thread before the pool
        # is asked for anything: a missing file fails there, unplanned.
        schema = TableSchema.from_pairs([("a", "integer")])
        entry = RawTableEntry(
            "t", schema, Path(tmp_path / "nope.csv"), CsvDialect(), "csv"
        )
        config = PostgresRawConfig(scan_workers=2, parallel_chunk_bytes=64)
        state = RawTableState(entry, config, governor=None)
        scan = RawScan(state, QueryMetrics(), ["a"])
        with pytest.raises(RawDataError):
            list(scan.execute())
        assert scan.plan is None
