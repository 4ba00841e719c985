"""Trace serialization: Chrome trace-event JSON and an ASCII flame.

Chrome trace-event output follows the documented JSON object format —
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with complete
(``"ph": "X"``) duration events plus ``"M"`` metadata naming each
process lane — and loads directly into Perfetto / ``chrome://tracing``.
Timestamps are microseconds, rebased per pid to that process's earliest
span (perf_counter epochs are not comparable across processes).
"""

from __future__ import annotations

from .recorder import SpanRecord, TraceRecorder

_JSON_SAFE = (str, int, float, bool, type(None))


def _safe_args(rec: SpanRecord) -> dict:
    args = {
        k: (v if isinstance(v, _JSON_SAFE) else repr(v))
        for k, v in rec.tags.items()
    }
    if rec.cache:
        args["cache"] = {
            name: {"hits": h, "misses": m}
            for name, (h, m) in sorted(rec.cache.items())
        }
    if rec.cpu_seconds:
        args["cpu_seconds"] = rec.cpu_seconds
    return args


def to_chrome(recorder: TraceRecorder) -> dict:
    """The recorder as a Chrome trace-event JSON object."""
    events: list[dict] = []
    bases: dict[int, float] = {}
    for root in recorder.roots:
        base = bases.get(root.pid)
        if base is None or root.start < base:
            bases[root.pid] = root.start
    for pid in sorted(bases):
        label = recorder.process_labels.get(pid) or (
            recorder.label if pid == recorder.pid and recorder.label else None
        )
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label or f"repro worker {pid}"},
            }
        )
    for root in recorder.roots:
        base = bases[root.pid]
        for rec in root.walk():
            events.append(
                {
                    "ph": "X",
                    "name": rec.name,
                    "cat": "repro",
                    "ts": (rec.start - base) * 1e6,
                    "dur": rec.seconds * 1e6,
                    "pid": rec.pid,
                    "tid": rec.tid,
                    "args": _safe_args(rec),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, recorder: TraceRecorder) -> None:
    # Atomic: a run killed mid-export must not leave a truncated trace
    # where Perfetto expects valid JSON.
    from .._io import atomic_write_json

    atomic_write_json(path, to_chrome(recorder), indent=1)


def flame(recorder: TraceRecorder, width: int = 34) -> str:
    """ASCII flame summary: the span tree with times, shares, and bars."""
    lines = [
        f"{'span':<{width}s} {'wall':>9s} {'%root':>6s}  profile"
    ]
    for root in recorder.roots:
        total = root.seconds or 1e-12
        for rec, depth in _walk_depth(root):
            share = rec.seconds / total
            bar = "#" * max(1, round(share * 24)) if rec.seconds else ""
            label = ("  " * depth + rec.name)[:width]
            lines.append(
                f"{label:<{width}s} {rec.seconds * 1e3:8.2f}ms "
                f"{share:6.1%}  {bar}"
            )
    return "\n".join(lines)


def _walk_depth(rec: SpanRecord, depth: int = 0):
    yield rec, depth
    for child in rec.children:
        yield from _walk_depth(child, depth + 1)
