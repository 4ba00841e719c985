"""Unified observability: hierarchical tracing spans + typed metrics.

The telemetry substrate under every instrumented layer of the planner:

* :mod:`repro.obs.spans` — hierarchical :class:`Span` contexts with a
  thread-local active stack and a near-zero disabled path; tracing is
  off unless :func:`recording` is active.
* :mod:`repro.obs.metrics` — a typed registry of cumulative counters,
  gauges, and log-scaled histograms (p50/p90/p99), absorbing
  :mod:`repro.cachestats` as a compatibility facade.  A rolling view is
  its reader's difference of two snapshots (:meth:`Histogram.since`).
* :mod:`repro.obs.recorder` — picklable :class:`TraceRecorder` /
  :class:`SpanRecord` trees; what batch workers ship back across the
  process pool, mergeable into one multi-process trace.
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable,
  CLI ``--trace-out``) and an ASCII flame summary.
* :mod:`repro.obs.slo` — the serve daemon's two fixed latency/error
  objectives and their burn rates over a metrics snapshot
  (:func:`serve_slo_report`).
* :mod:`repro.obs.prom` — Prometheus text-format exposition of the
  registry.
* :mod:`repro.obs.watch` — a live ASCII dashboard polling a running
  serve daemon (``python -m repro.obs.watch HOST:PORT``).
"""

from .export import flame, to_chrome, write_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    latency_summary,
    registry,
)
from .prom import render_prometheus
from .recorder import SpanRecord, TraceRecorder
from .slo import serve_slo_report
from .spans import Span, annotate, enabled, instant, recording, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Span",
    "SpanRecord",
    "TraceRecorder",
    "annotate",
    "enabled",
    "flame",
    "instant",
    "latency_summary",
    "recording",
    "registry",
    "render_prometheus",
    "serve_slo_report",
    "span",
    "to_chrome",
    "write_chrome_trace",
]
