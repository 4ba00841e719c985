"""Picklable trace records: the data that crosses process boundaries.

A live :class:`~repro.obs.spans.Span` holds thread-local bookkeeping
that must never travel; when a root span finishes it is frozen into a
:class:`SpanRecord` tree — plain dataclasses of primitives — and handed
to the installed :class:`TraceRecorder`.  Recorders are what the batch
workers ship back across the :class:`~concurrent.futures.\
ProcessPoolExecutor`: each worker records under its own pid, and
:meth:`TraceRecorder.merge` folds many worker recorders into one
coherent multi-process trace with per-program attribution, ready for
:mod:`repro.obs.export`.

Timestamps are ``time.perf_counter`` seconds, whose epoch is arbitrary
*per process* — comparable within a pid, meaningless across pids.  The
exporters rebase each pid's lane to its own earliest span, so merged
traces line up at zero without pretending cross-process clocks agree.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional


@dataclass
class SpanRecord:
    """One finished span, frozen for transport.

    ``start`` is process-local ``perf_counter`` seconds; ``cache`` holds
    the :mod:`repro.cachestats` counter increments observed while the
    span was open (children's increments included — the registry is
    process-global, not scoped).
    """

    name: str
    start: float
    seconds: float
    cpu_seconds: float
    tags: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)
    pid: int = 0
    tid: int = 0

    def walk(self) -> Iterator["SpanRecord"]:
        """This record and every descendant, depth-first, parents first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
            "tags": dict(self.tags),
            "cache": {k: list(v) for k, v in self.cache.items()},
            "children": [c.to_dict() for c in self.children],
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SpanRecord":
        return cls(
            name=d["name"],
            start=d["start"],
            seconds=d["seconds"],
            cpu_seconds=d.get("cpu_seconds", 0.0),
            tags=dict(d.get("tags", {})),
            cache={k: tuple(v) for k, v in d.get("cache", {}).items()},
            children=[cls.from_dict(c) for c in d.get("children", ())],
            pid=d.get("pid", 0),
            tid=d.get("tid", 0),
        )


def _stamp(rec: SpanRecord, pid: int, tid: int) -> None:
    for r in rec.walk():
        if not r.pid:
            r.pid = pid
        if not r.tid:
            r.tid = tid


class TraceRecorder:
    """Collects finished root spans; picklable; mergeable across processes.

    One recorder per traced unit of work (a CLI invocation, one batch
    task inside a worker).  ``label`` names the unit — the batch engine
    uses the program name, so merged traces attribute every span to its
    program.
    """

    def __init__(self, label: Optional[str] = None) -> None:
        self.label = label
        self.pid = os.getpid()
        self.roots: list[SpanRecord] = []
        # pid -> human label, for exporter process lanes; grows on merge.
        self.process_labels: dict[int, str] = {}
        if label is not None:
            self.process_labels[self.pid] = label

    # -- collection --------------------------------------------------------

    def add_root(self, rec: SpanRecord) -> None:
        _stamp(rec, self.pid, threading.get_ident())
        if self.label is not None:
            rec.tags.setdefault("program", self.label)
        self.roots.append(rec)

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "TraceRecorder") -> None:
        """Fold another recorder's roots into this one.

        The incoming roots keep their own pid (their lane in the merged
        trace); the other recorder's label is stamped as per-program
        attribution on each incoming root.
        """
        label = other.label
        for root in other.roots:
            if label is not None:
                root.tags.setdefault("program", label)
            self.roots.append(root)
        self.process_labels.update(other.process_labels)
        if label is not None:
            self.process_labels.setdefault(other.pid, label)

    @classmethod
    def merged(
        cls,
        recorders: Iterable[Optional["TraceRecorder"]],
        label: Optional[str] = None,
    ) -> "TraceRecorder":
        out = cls(label=label)
        out.process_labels.pop(out.pid, None)  # aggregate owns no lane
        for rec in recorders:
            if rec is not None:
                out.merge(rec)
        return out

    # -- introspection -----------------------------------------------------

    def walk(self) -> Iterator[SpanRecord]:
        for root in self.roots:
            yield from root.walk()

    def span_names(self) -> set[str]:
        return {r.name for r in self.walk()}

    def find(self, name: str) -> list[SpanRecord]:
        return [r for r in self.walk() if r.name == name]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "pid": self.pid,
            "process_labels": {str(k): v for k, v in self.process_labels.items()},
            "roots": [r.to_dict() for r in self.roots],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TraceRecorder":
        out = cls(label=d.get("label"))
        out.pid = d.get("pid", out.pid)
        out.process_labels = {
            int(k): v for k, v in d.get("process_labels", {}).items()
        }
        out.roots = [SpanRecord.from_dict(r) for r in d.get("roots", ())]
        return out

    def __repr__(self) -> str:
        label = f" {self.label!r}" if self.label else ""
        return (
            f"<TraceRecorder{label}: {len(self.roots)} roots, "
            f"{len(self.span_names())} span names>"
        )
