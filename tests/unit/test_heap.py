"""The heap policy: set once per process, a no-op without ``mallopt``."""

from __future__ import annotations

from repro import PostgresRaw, TableSchema
from repro.service import heap


def _fresh_process(monkeypatch, mallopt):
    """The module as a process that has started no engine sees it,
    with ``mallopt`` as its C library's."""
    monkeypatch.setattr(heap, "_applied", None)
    monkeypatch.setattr(heap, "_mallopt", lambda: mallopt)


def test_both_thresholds_are_set_once_by_the_first_engine(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    _fresh_process(monkeypatch, mallopt)
    with PostgresRaw(), PostgresRaw():
        pass
    with PostgresRaw():
        pass
    assert calls == [
        (heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD),
        (heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD),
    ]
    assert heap.retain_heap() is True
    assert len(calls) == 2


def test_no_mallopt_is_a_no_op(monkeypatch, tmp_path):
    _fresh_process(monkeypatch, None)
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n")
    with PostgresRaw() as engine:
        schema = TableSchema.from_pairs([("a", "integer"), ("b", "integer")])
        engine.register_csv("t", str(path), schema)
        assert engine.query("SELECT b FROM t WHERE a = 3").rows == [(4,)]
    assert heap.retain_heap() is False


def test_a_refused_setting_is_reported_and_not_retried(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0

    _fresh_process(monkeypatch, mallopt)
    assert heap.retain_heap() is False
    assert heap.retain_heap() is False
    assert calls == [heap.M_MMAP_THRESHOLD]


def test_this_c_library_takes_the_policy():
    # glibc has ``mallopt``; where the C library has none, the policy
    # is simply off.
    assert heap.retain_heap() is (heap._mallopt() is not None)
