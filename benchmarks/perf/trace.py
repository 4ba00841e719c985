"""The harness's own spans around each public layer call.

Spans live in memory (name, start, end, parent, op id) and are written
out once, as a Chrome trace-event file, when the run ends.  A span's
self time is its duration minus the part its child spans cover.  Spans
inside ``src/`` are a later change; nothing here touches the program.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op root
    op: str  # the op (item) every span of one timed call shares


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[None]:
        """Time one layer call.  A span opened with no span active is an
        op root and must name its ``op``; children inherit it."""
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            op = self.spans[parent].op
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op or name))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Record a child of the open span whose duration was reported by
        the callee (it has no start of its own): children added this way
        are laid back to back from the parent's start."""
        parent = self._stack[-1]
        start = max(
            [self.spans[parent].start]
            + [s.end for s in self.spans[parent + 1 :] if s.parent == parent]
        )
        self.spans.append(Span(name, start, start + seconds, parent, self.spans[parent].op))

    def rows(self) -> list[tuple[str, str, float, float]]:
        """Per span: ``(name, name of its root span, duration, self seconds)``."""
        child_time = [0.0] * len(self.spans)
        roots = []
        for s in self.spans:  # a parent always precedes its children
            roots.append(s.name if s.parent < 0 else roots[s.parent])
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        return [
            (s.name, roots[i], s.end - s.start, s.end - s.start - child_time[i])
            for i, s in enumerate(self.spans)
        ]

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (loadable in Perfetto / about:tracing)."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"op": s.op, "parent": s.parent},
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
