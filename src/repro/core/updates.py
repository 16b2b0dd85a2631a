"""Raw-file change detection (paper §4.2, Updates scenario).

"We allow the users to perform updates directly on the raw data files
without using PostgresRaw ... In both cases, PostgresRaw is responsible
for detecting the changes and update the auxiliary NoDB data
structures."

The engine fingerprints each registered file and re-checks the
fingerprint before every query (``auto_detect_updates``).  Three
outcomes:

* ``UNCHANGED``  — nothing to do;
* ``APPENDED``   — the file grew, its previous extent is intact and
  ended in ``\n``: positional-map chunks, cache entries and the line
  index remain valid *prefixes* and are extended lazily as queries
  touch the new tail;
* ``REWRITTEN``  — content changed in place, the file shrank, or it
  grew after an unterminated last record (the new bytes may continue
  that record, so its row is no longer what the engine learned): all
  auxiliary structures are invalidated and rebuilt from scratch by
  subsequent queries, exactly like pointing the engine at a new file.

Detection is hash-based over two windows (head of file + tail of the old
extent) plus size/mtime, so it never reads more than ~68 KiB regardless
of file size.  Like mtime-based detection in production systems it is
probabilistic: an adversarial in-place edit beyond both windows that
preserves size and windows would be missed; the paper's scenario (text
editor appends / new file) is detected reliably.
"""

from __future__ import annotations

import enum
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

_HEAD_WINDOW = 64 * 1024
_TAIL_WINDOW = 4 * 1024


class FileChange(enum.Enum):
    UNCHANGED = "unchanged"
    APPENDED = "appended"
    REWRITTEN = "rewritten"
    MISSING = "missing"


@dataclass(frozen=True)
class FileFingerprint:
    """Cheap identity snapshot of a raw file."""

    size_bytes: int
    mtime_ns: int
    head_hash: bytes  # sha256 of the first min(size, 64 KiB) bytes
    tail_hash: bytes  # sha256 of the last min(size, 4 KiB) bytes
    tail_offset: int  # where the tail window started
    #: The file is empty or its last byte is ``\n``: bytes appended
    #: later start a new record instead of continuing the last one.
    ends_with_newline: bool


def _hash_window(f, offset: int, length: int) -> bytes:
    return hashlib.sha256(_read_window(f, offset, length)).digest()


def _read_window(f, offset: int, length: int) -> bytes:
    f.seek(offset)
    return f.read(length)


def fingerprint_file(path: str | Path) -> FileFingerprint:
    """Snapshot ``path`` for later change detection."""
    path = Path(path)
    stat = os.stat(path)
    size = stat.st_size
    head_len = min(size, _HEAD_WINDOW)
    tail_len = min(size, _TAIL_WINDOW)
    tail_offset = size - tail_len
    with open(path, "rb") as f:
        head = _hash_window(f, 0, head_len)
        tail = _read_window(f, tail_offset, tail_len)
    return FileFingerprint(
        size_bytes=size,
        mtime_ns=stat.st_mtime_ns,
        head_hash=head,
        tail_hash=hashlib.sha256(tail).digest(),
        tail_offset=tail_offset,
        ends_with_newline=not tail or tail.endswith(b"\n"),
    )


def detect_change(
    old: FileFingerprint, path: str | Path
) -> tuple[FileChange, FileFingerprint | None]:
    """Compare the file at ``path`` against an earlier fingerprint.

    Returns the detected change kind and the file's *current*
    fingerprint (``None`` when the file is missing).
    """
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return FileChange.MISSING, None

    if stat.st_size == old.size_bytes and stat.st_mtime_ns == old.mtime_ns:
        return FileChange.UNCHANGED, old

    # A writer may still be appending: the size ``current`` saw is the
    # one judged, never the first ``stat``'s (a write can move mtime
    # before it moves the size).
    current = fingerprint_file(path)
    if current.size_bytes < old.size_bytes:
        return FileChange.REWRITTEN, current
    # Verify the old extent is intact where we have evidence.
    head_len = min(old.size_bytes, _HEAD_WINDOW)
    tail_len = min(old.size_bytes, _TAIL_WINDOW)
    with open(path, "rb") as f:
        head_now = _hash_window(f, 0, head_len)
        tail_now = _hash_window(f, old.tail_offset, tail_len)
    if head_now != old.head_hash or tail_now != old.tail_hash:
        return FileChange.REWRITTEN, current
    if current.size_bytes == old.size_bytes:
        # Touched but content windows identical: treat as unchanged.
        return FileChange.UNCHANGED, current
    if not old.ends_with_newline:
        # The new bytes may continue the old last record.
        return FileChange.REWRITTEN, current
    return FileChange.APPENDED, current
