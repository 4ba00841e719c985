"""Structured JSON-lines logging for the serving layer.

One :class:`AccessLog` instance is both the per-request **access log**
(exactly one record per serve request — hit, miss, error, or
rejection) and the **event log** for daemon lifecycle records
(listening, malformed requests, connection resets).  Every record is a
single compact JSON object on its own line, so the file greps, tails,
and loads with one ``json.loads`` per line:

* access records::

    {"ts": 1722540000.12, "kind": "access", "name": "q1", "status": "ok",
     "cached": "plan", "ms": 0.61,
     "fingerprints": {"program": "4fca93d21b08", "options": "…",
                      "machine": "…"},
     "trace": {"serve.request": {"count": 1, "ms": 0.59}, …}}   # sampled

* event records::

    {"ts": 1722540000.0, "kind": "event", "event": "listening",
     "host": "127.0.0.1", "port": 8723}

File-backed logs append through :func:`repro._io.append_jsonl` — one
``O_APPEND`` write per record, so the daemon's thread pool never
interleaves two records, and a killed daemon leaves at worst a
complete prefix of the log, never a torn line.  Stream-backed logs
(``stream=sys.stdout``) serve the daemon's operator-facing lifecycle
lines.

Trace sampling is **deterministic**, not random: with
``trace_sample=r`` every ``round(1/r)``-th access record carries a
per-span time breakdown of its request (the first request is always
sampled, so ``--trace-sample`` takes effect immediately).  Determinism
keeps the serve benchmark and tests reproducible.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, IO, Mapping, Optional

from .._io import append_jsonl, compact_json


class AccessLog:
    """Thread-safe JSON-lines sink for access and event records."""

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[IO[str]] = None,
        trace_sample: float = 0.0,
        clock=time.time,
    ) -> None:
        if (path is None) == (stream is None):
            raise ValueError("AccessLog needs exactly one of path/stream")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(f"trace_sample outside [0, 1]: {trace_sample}")
        self.path = path
        self._stream = stream
        self._clock = clock
        self.trace_sample = trace_sample
        self._every = round(1.0 / trace_sample) if trace_sample else 0
        self._lock = threading.Lock()
        self._accesses = 0

    # -- sampling ----------------------------------------------------------

    def should_trace(self) -> bool:
        """Decide-and-count: True for the next access record iff it is
        this log's turn to carry a span breakdown."""
        if not self._every:
            return False
        with self._lock:
            sampled = self._accesses % self._every == 0
            self._accesses += 1
            return sampled

    # -- record constructors -----------------------------------------------

    def access(
        self,
        *,
        name: str,
        status: str,
        cached: Optional[str],
        ms: float,
        fingerprints: Optional[Mapping[str, str]] = None,
        error: Optional[str] = None,
        trace: Optional[Mapping[str, Any]] = None,
    ) -> dict:
        """Emit one per-request record; returns the record written."""
        record: dict[str, Any] = {
            "ts": self._clock(),
            "kind": "access",
            "name": name,
            "status": status,
            "cached": cached,
            "ms": round(ms, 4),
        }
        if fingerprints:
            record["fingerprints"] = dict(fingerprints)
        if error is not None:
            record["error"] = error
        if trace is not None:
            record["trace"] = trace
        self._emit(record)
        return record

    def event(self, event: str, **fields: Any) -> dict:
        """Emit one lifecycle/event record; returns the record written."""
        record: dict[str, Any] = {
            "ts": self._clock(),
            "kind": "event",
            "event": event,
        }
        record.update(fields)
        self._emit(record)
        return record

    def _emit(self, record: dict) -> None:
        if self.path is not None:
            # append_jsonl is a single O_APPEND write: record-atomic
            # across threads and processes without holding our lock
            # through the syscall.
            append_jsonl(self.path, record)
        else:
            line = compact_json(record)
            with self._lock:
                self._stream.write(line + "\n")
                try:
                    self._stream.flush()
                except (OSError, ValueError):
                    pass


def read_access_log(path: str) -> list[dict]:
    """Parse a JSON-lines log back into records (tests, benchmarks)."""
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
