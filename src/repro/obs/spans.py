"""Hierarchical tracing spans with a thread-local active stack.

A :class:`Span` measures one named region: wall time, CPU time, and the
:mod:`repro.cachestats` counter increments observed while it was open.
Spans nest — each thread keeps its own active-span stack, so a span
opened inside another becomes its child — and a finished *root* span is
frozen into a picklable :class:`~repro.obs.recorder.SpanRecord` tree
and handed to the installed :class:`~repro.obs.recorder.TraceRecorder`.

Tracing is **off by default** and the disabled path is near-free:
:func:`span` checks one module global and returns a shared no-op
context manager, so instrumented hot paths (every pipeline pass, every
front-pricing call) cost one function call when nobody is tracing.  The
overhead-guard test in ``tests/test_obs.py`` holds that line.

Usage::

    from repro.obs import spans as obs

    with obs.recording(label="figure1") as rec:
        with obs.span("plan", program="figure1"):
            with obs.span("distrib.front_price", axes=2):
                ...
    rec.roots[0].children[0].name   # "distrib.front_price"
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .. import cachestats
from .recorder import SpanRecord, TraceRecorder

_enabled = False
_recorder: Optional[TraceRecorder] = None
_local = threading.local()


def _stack() -> list:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


def _untraced() -> None:
    """A forked child starts untraced: nothing reads its parent's spans."""
    global _enabled, _recorder, _local
    _enabled, _recorder, _local = False, None, threading.local()


os.register_at_fork(after_in_child=_untraced)


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def tag(self, **tags: Any) -> "_NullSpan":
        return self


_NULL = _NullSpan()


class Span:
    """A live, in-flight span.  Use via :func:`span`, not directly."""

    __slots__ = (
        "name",
        "tags",
        "start",
        "seconds",
        "cpu_seconds",
        "cache",
        "children",
        "_cpu0",
        "_cache_before",
    )

    def __init__(self, name: str, tags: dict) -> None:
        self.name = name
        self.tags = tags
        self.children: list[SpanRecord] = []
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.cache: dict = {}

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        _stack().append(self)
        self._cache_before = cachestats.snapshot()
        self._cpu0 = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self.start
        self.cpu_seconds = time.process_time() - self._cpu0
        self.cache = cachestats.delta(self._cache_before)
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        stack = _stack()
        # Defensive pop: a mismatched exit (a span closed out of order)
        # drops the orphans rather than corrupting the ancestry.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        record = self._freeze()
        if stack:
            stack[-1].children.append(record)
        else:
            rec = _recorder
            if rec is not None:
                rec.add_root(record)
        return False

    def _freeze(self) -> SpanRecord:
        return SpanRecord(
            name=self.name,
            start=self.start,
            seconds=self.seconds,
            cpu_seconds=self.cpu_seconds,
            tags=self.tags,
            cache=self.cache,
            children=self.children,
        )


# -- public surface ----------------------------------------------------------


def enabled() -> bool:
    return _enabled


@contextmanager
def recording(
    label: Optional[str] = None, into: Optional[TraceRecorder] = None
) -> Iterator[TraceRecorder]:
    """Trace a region into a fresh recorder (or ``into``), restoring
    prior state after.

    Re-entrant: a worker that traces one task inside an already-traced
    process restores the outer recorder on exit.
    """
    global _enabled, _recorder
    prev = (_enabled, _recorder)
    rec = into if into is not None else TraceRecorder(label=label)
    _recorder = rec
    _enabled = True
    try:
        yield rec
    finally:
        _enabled, _recorder = prev


def span(name: str, **tags: Any):
    """Open a span (context manager); a shared no-op when disabled."""
    if not _enabled:
        return _NULL
    return Span(name, tags)


def annotate(**tags: Any) -> None:
    """Attach tags to the current span; no-op when disabled/outside."""
    if not _enabled:
        return
    stack = _stack()
    if stack:
        stack[-1].tags.update(tags)


def instant(name: str, **tags: Any) -> None:
    """Record a zero-duration marker under the current span (or root)."""
    if not _enabled:
        return
    record = SpanRecord(
        name=name,
        start=time.perf_counter(),
        seconds=0.0,
        cpu_seconds=0.0,
        tags=tags,
    )
    stack = _stack()
    if stack:
        stack[-1].children.append(record)
    else:
        rec = _recorder
        if rec is not None:
            rec.add_root(record)
