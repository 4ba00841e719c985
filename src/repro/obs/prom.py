"""Prometheus text-format exposition of the metric registry.

The renderer turns the metric registry into the Prometheus text format
(version 0.0.4), so standard scrape tooling can consume the serve
daemon's telemetry:

* counters  → ``<name>_total`` with ``# TYPE ... counter``;
* gauges    → ``<name>`` with ``# TYPE ... gauge`` (unset gauges are
  omitted — Prometheus has no null);
* histograms → the full cumulative-bucket family: ``<name>_bucket``
  samples with ``le`` upper bounds derived from the log-scale buckets
  (each occupied bucket's upper edge ``base**i``, zeros counted below
  every bound), a ``le="+Inf"`` bucket equal to ``_count``, plus
  ``_sum`` and ``_count``.

Every family is cumulative; a scraper derives rates and windowed
quantiles from two scrapes, as Prometheus does.  Metric names are
sanitized to the Prometheus grammar (dots and other illegal characters
become underscores).
"""

from __future__ import annotations

import math
import re
from typing import Optional

from .metrics import _LOG_BASE, Registry, registry as _registry

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize(name: str) -> str:
    """A registry metric name as a legal Prometheus metric name."""
    out = _SANITIZE_RE.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(float(value))


def _histogram_lines(name: str, data: dict, lines: list[str]) -> None:
    """One histogram family from a raw :meth:`Histogram.to_dict` dict.

    The log-scale bucket index ``i`` covers ``(base**(i-1), base**i]``,
    so ``base**i`` is an exact cumulative upper bound; zeros sit below
    every finite bound.  Only occupied buckets emit a sample (plus
    ``+Inf``) — Prometheus cumulative semantics don't need the empty
    ones.
    """
    lines.append(f"# TYPE {name} histogram")
    cumulative = data["zeros"]
    if data["zeros"]:
        # An explicit zero bound keeps the zeros mass visible even when
        # no positive observation exists.
        lines.append(f'{name}_bucket{{le="0"}} {cumulative}')
    for i in sorted(int(k) for k in data["buckets"]):
        cumulative += data["buckets"][str(i)]
        le = _LOG_BASE ** i
        lines.append(f'{name}_bucket{{le="{_fmt(le)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {data["count"]}')
    lines.append(f"{name}_sum {_fmt(data['sum'])}")
    lines.append(f"{name}_count {data['count']}")


def render_prometheus(
    registry: Optional[Registry] = None, include_cachestats: bool = True
) -> str:
    """The whole registry in Prometheus text format (trailing newline
    included — the format requires the final line be terminated)."""
    reg = registry if registry is not None else _registry()
    snap = reg.snapshot(include_cachestats=include_cachestats)
    lines: list[str] = []
    for name, value in snap["counters"].items():
        name = sanitize(name)
        lines.append(f"# TYPE {name}_total counter")
        lines.append(f"{name}_total {value}")
    for name, value in snap["gauges"].items():
        if value is not None:
            name = sanitize(name)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(value)}")
    for name, data in snap["histograms"].items():
        _histogram_lines(sanitize(name), data, lines)
    return "\n".join(lines) + "\n"
