"""Crash-safe file writes, shared by every report/cache emitter.

A plain ``json.dump`` (or ``pickle.dump``) to an open destination file
leaves a truncated, unparseable artifact if the process dies mid-write —
which matters once files outlive the process that wrote them: batch
report JSONs consumed by CI, Chrome traces opened in Perfetto, and
above all the persistent plan cache of :mod:`repro.serve`, whose whole
contract is that a killed daemon never leaves a corrupt entry behind.

The pattern here is the standard one: write the full payload to a
temporary file *in the same directory* (same filesystem, so the final
rename cannot degrade to a copy), fsync it, then :func:`os.replace` it
over the destination — atomic on POSIX and Windows alike.  Readers
therefore see either the old content or the new content, never a
prefix of the new one.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

#: The compact encoding of every JSON-lines record, built once: it is
#: ``json.dumps(obj, separators=(",", ":"))`` byte for byte, without a
#: new encoder per record (``encode`` keeps no state between calls).
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomic text-mode companion to :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str, obj: Any, indent: int | None = 2) -> None:
    """Serialize ``obj`` as JSON and write it atomically.

    Serialization happens *before* any file is touched, so a
    non-serializable object cannot clobber an existing artifact either.
    """
    atomic_write_text(path, json.dumps(obj, indent=indent))


def append_line(path: str, line: str, encoding: str = "utf-8") -> None:
    """Append one newline-terminated record to ``path`` (created if
    missing).

    The complement of the atomic-replace writers above, for logs that
    *grow*: the file is opened with ``O_APPEND``, the whole record is a
    single ``write`` of one line, and POSIX guarantees append writes
    are not interleaved with other appenders for ordinary files — so
    concurrent threads (the serve access log is written from a thread
    pool) each land one intact line.  The line itself must not contain
    a newline; serialize first, then append.
    """
    if "\n" in line:
        raise ValueError("append_line records must be single lines")
    data = (line + "\n").encode(encoding)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def append_jsonl(path: str, obj: Any) -> None:
    """Serialize ``obj`` compactly and append it as one JSON line.

    Serialization happens before the file is opened (a non-serializable
    record cannot leave a partial line), and the single-write append of
    :func:`append_line` keeps concurrent writers' records intact.
    """
    append_line(path, compact_json(obj))
