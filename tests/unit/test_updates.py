"""Unit tests for raw-file change detection."""

import os

import pytest

from repro.core import updates
from repro.core.updates import (
    FileChange,
    detect_change,
    fingerprint_file,
)


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3,4\n" * 100)
    return path


class TestFingerprint:
    def test_deterministic(self, raw_file):
        a = fingerprint_file(raw_file)
        b = fingerprint_file(raw_file)
        assert a == b

    def test_size_recorded(self, raw_file):
        fp = fingerprint_file(raw_file)
        assert fp.size_bytes == os.stat(raw_file).st_size

    def test_different_content_different_hash(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        p1.write_text("hello\n")
        p2.write_text("world\n")
        assert fingerprint_file(p1).head_hash != fingerprint_file(p2).head_hash


class TestDetectChange:
    def test_unchanged(self, raw_file):
        fp = fingerprint_file(raw_file)
        change, new_fp = detect_change(fp, raw_file)
        assert change is FileChange.UNCHANGED
        assert new_fp == fp

    def test_touch_without_content_change(self, raw_file):
        fp = fingerprint_file(raw_file)
        os.utime(raw_file)  # bump mtime only
        change, __ = detect_change(fp, raw_file)
        assert change is FileChange.UNCHANGED

    def test_append_detected(self, raw_file):
        fp = fingerprint_file(raw_file)
        with open(raw_file, "a") as f:
            f.write("5,6\n7,8\n")
        change, new_fp = detect_change(fp, raw_file)
        assert change is FileChange.APPENDED
        assert new_fp.size_bytes > fp.size_bytes

    def test_rewrite_same_size_detected(self, raw_file):
        fp = fingerprint_file(raw_file)
        content = raw_file.read_text()
        raw_file.write_text("X" + content[1:])  # same length, new bytes
        change, __ = detect_change(fp, raw_file)
        assert change is FileChange.REWRITTEN

    def test_shrink_is_rewrite(self, raw_file):
        fp = fingerprint_file(raw_file)
        content = raw_file.read_text()
        raw_file.write_text(content[: len(content) // 2])
        change, __ = detect_change(fp, raw_file)
        assert change is FileChange.REWRITTEN

    def test_grow_with_prefix_change_is_rewrite(self, raw_file):
        fp = fingerprint_file(raw_file)
        content = raw_file.read_text()
        raw_file.write_text("Z" + content[1:] + "extra,rows\n")
        change, __ = detect_change(fp, raw_file)
        assert change is FileChange.REWRITTEN

    def test_grow_with_tail_change_is_rewrite(self, raw_file):
        fp = fingerprint_file(raw_file)
        content = raw_file.read_text()
        # Mutate the last line of the old extent while also growing.
        mutated = content[:-2] + "X\nmore,data\n"
        raw_file.write_text(mutated)
        change, __ = detect_change(fp, raw_file)
        assert change is FileChange.REWRITTEN

    def test_missing_file(self, raw_file):
        fp = fingerprint_file(raw_file)
        os.remove(raw_file)
        change, new_fp = detect_change(fp, raw_file)
        assert change is FileChange.MISSING
        assert new_fp is None

    def test_append_caught_mid_write_is_an_append(self, raw_file, monkeypatch):
        # A write moves mtime before it moves the size: the first stat
        # sees the old size with a new mtime, the fingerprint after it
        # the grown file.  That is an append, never a rewrite.
        fp = fingerprint_file(raw_file)
        with open(raw_file, "a") as f:
            f.write("5,6\n")
        real_stat = os.stat
        first = [True]

        def mid_write_stat(path, *args, **kwargs):
            result = real_stat(path, *args, **kwargs)
            if first[0]:
                first[0] = False
                fields = list(result)
                fields[6] = fp.size_bytes  # st_size
                return os.stat_result(fields, {"st_mtime_ns": 1})
            return result

        monkeypatch.setattr(updates.os, "stat", mid_write_stat)
        change, new_fp = detect_change(fp, raw_file)
        assert change is FileChange.APPENDED
        assert new_fp.size_bytes == fp.size_bytes + 4

    def test_repeated_appends(self, raw_file):
        fp = fingerprint_file(raw_file)
        for __ in range(3):
            with open(raw_file, "a") as f:
                f.write("9,9\n")
            change, fp = detect_change(fp, raw_file)
            assert change is FileChange.APPENDED


def test_append_to_empty_table_keeps_first_byte(tmp_path):
    """Regression: the zero-row line index must place its boundary at
    len(content), not one past it — the append-resume tokenizer starts
    there, and overshooting ate the first byte of the first appended
    row (`0,1` parsed as `(NULL, 1)`)."""
    from repro import (
        Column,
        DataType,
        PostgresRaw,
        TableSchema,
        append_csv_rows,
    )

    schema = TableSchema(
        [Column("id", DataType.INTEGER), Column("g", DataType.INTEGER)]
    )
    path = tmp_path / "empty.csv"
    path.write_text("id,g\n", encoding="utf-8")
    engine = PostgresRaw()
    engine.register_csv("t", path, schema)
    assert engine.query("SELECT * FROM t").rows == []
    append_csv_rows(path, [(0, 1)], schema)
    assert engine.query("SELECT * FROM t").rows == [(0, 1)]
    append_csv_rows(path, [(2, 3)], schema)
    assert engine.query("SELECT * FROM t").rows == [(0, 1), (2, 3)]
