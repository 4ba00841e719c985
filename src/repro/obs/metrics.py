"""Typed metric registry: counters, gauges, log-scaled histograms.

Three metric kinds, all cheap enough for hot paths:

* :class:`Counter` — a monotonically increasing integer.
* :class:`Gauge` — a last-write-wins float with ``inc``/``dec`` for
  level tracking (in-flight requests, queue depths).
* :class:`Histogram` — log-scaled buckets (base ``2**0.25``, ~19%
  resolution) with exact count/sum/min/max; percentiles are read off
  the bucket boundaries, so p50/p90/p99 are within one bucket width of
  exact at constant memory.

All three are **thread-safe**: the serve daemon plans in a thread pool,
so ``inc``/``set``/``observe`` take a per-metric lock (an uncontended
``threading.Lock`` costs well under a microsecond — the overhead-guard
test in ``tests/test_obs_live.py`` holds that line, and the hammer test
there asserts exact counts under concurrent increments).

Every metric is **cumulative** since the process started.  A reader
that wants a rolling view ("the last 5 s") polls twice and subtracts:
counters by value, histograms exactly with :meth:`Histogram.since`.
That is how the Prometheus reader of ``/metrics`` derives rates and
quantiles, and how :mod:`repro.obs.watch` draws its interval column.

The process-global :func:`registry` is the front door.  It *absorbs*
:mod:`repro.cachestats` as a compatibility facade: cache hit/miss
counters registered there surface through :meth:`Registry.snapshot`
under ``cache.<name>.hits`` / ``cache.<name>.misses`` without touching
any cachestats call site — the batch engine, the memo kernels, and
their tests keep the API they always had.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Optional, Union

from .. import cachestats

_LOG_BASE = 2.0 ** 0.25
_LN_BASE = math.log(_LOG_BASE)


class Counter:
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, n: float = 1) -> None:
        """Add ``n`` to the level; an unset gauge counts as 0."""
        with self._lock:
            self.value = (self.value or 0) + n

    def dec(self, n: float = 1) -> None:
        self.inc(-n)


class Histogram:
    """Log-scaled histogram over non-negative observations.

    Bucket ``i`` covers ``(base**(i-1), base**i]``; zero lands in a
    dedicated bucket.  Memory is one dict entry per occupied bucket.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "zeros", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative value {value}")
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if value == 0:
                self.zeros += 1
                return
            i = math.ceil(math.log(value) / _LN_BASE - 1e-12)
            self.buckets[i] = self.buckets.get(i, 0) + 1

    def to_dict(self) -> dict:
        """A JSON-ready exact encoding; :meth:`from_dict` round-trips it.

        Bucket keys are stringified indices (JSON objects cannot key on
        ints); ``min``/``max`` of an empty histogram encode as ``None``
        so the infinities never leak into a JSON document.
        """
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
                "zeros": self.zeros,
                "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
            }

    @classmethod
    def from_dict(cls, name: str, data: Mapping) -> "Histogram":
        h = cls(name)
        h.count = int(data["count"])
        h.total = float(data["sum"])
        h.min = math.inf if data["min"] is None else float(data["min"])
        h.max = -math.inf if data["max"] is None else float(data["max"])
        h.zeros = int(data["zeros"])
        h.buckets = {int(i): int(n) for i, n in data["buckets"].items()}
        return h

    def since(self, earlier: Mapping) -> "Histogram":
        """The observations made after ``earlier``, a :meth:`to_dict` of
        this histogram taken before them, as a histogram of their own.

        ``count``, ``zeros`` and every bucket are differences of integers,
        so they and :meth:`count_le` equal those of a histogram that
        observed only the later values; ``sum`` is their float
        difference.  Extremes do not subtract: ``min``/``max`` are the
        edges of the outermost occupied buckets, a bound on the true
        extremes at bucket resolution, so percentiles read the buckets
        alone (they equal those of the later values' histogram with its
        extremes widened to the same edges).  Raises
        ``ValueError`` when ``earlier`` holds something this histogram
        does not (another histogram, or one from before a restart).
        """
        past = Histogram.from_dict(self.name, earlier)
        out = Histogram(self.name)
        with self._lock:
            out.count = self.count - past.count
            out.total = self.total - past.total
            out.zeros = self.zeros - past.zeros
            for i in self.buckets.keys() | past.buckets.keys():
                n = self.buckets.get(i, 0) - past.buckets.get(i, 0)
                if n:
                    out.buckets[i] = n
        if out.zeros < 0 or any(n < 0 for n in out.buckets.values()):
            raise ValueError(
                f"histogram {self.name}: the earlier snapshot is not a prefix"
            )
        if out.count:
            out.min = 0.0 if out.zeros else _LOG_BASE ** (min(out.buckets) - 1)
            out.max = _LOG_BASE ** max(out.buckets) if out.buckets else 0.0
        return out

    def count_le(self, value: float) -> int:
        """Observations known to be ``<= value``, at bucket resolution.

        Counts the zeros bucket plus every bucket whose *upper* edge is
        at or below ``value`` — conservative for a threshold inside a
        bucket (the partial bucket is excluded), which is the right
        direction for SLO compliance: never over-credit.
        """
        if value < 0:
            return 0
        with self._lock:
            n = self.zeros
            if value > 0:
                edge = math.floor(math.log(value) / _LN_BASE + 1e-12)
                for i, c in self.buckets.items():
                    if i <= edge:
                        n += c
            return n

    def percentile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1], bucket-resolution.

        Edge cases are defined, not accidental — serve-side p50/p99
        reporting reads these without guards:

        * an **empty** histogram returns ``0.0`` for every ``q``;
        * an **all-zeros** histogram (zeros live outside ``buckets``)
          returns ``0.0`` for every ``q`` — the zeros mass is counted,
          never skipped;
        * ``q == 0`` returns the observed minimum (``0.0`` only when a
          zero was actually observed), instead of inventing a zero.

        On a :meth:`since` difference ``min``/``max`` are the outermost
        bucket edges, so there the clamp changes nothing and every
        percentile is read off the buckets alone.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return 0.0 if self.zeros else self.min
        target = q * self.count
        seen = self.zeros
        if seen >= target:
            return 0.0
        for i in sorted(self.buckets):
            seen += self.buckets[i]
            if seen >= target:
                lo = _LOG_BASE ** (i - 1)
                hi = _LOG_BASE ** i
                # Geometric bucket midpoint, clamped to observed range.
                mid = math.sqrt(lo * hi)
                return min(max(mid, self.min), self.max)
        return self.max

    def summary(self) -> dict:
        """JSON-ready summary; always the full schema, so consumers can
        read ``p50``/``p99`` off an empty histogram without KeyErrors
        (all-zero values, ``count`` 0 — still falsy for render guards)."""
        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


Metric = Union[Counter, Gauge, Histogram]


class Registry:
    """Name-keyed store of typed metrics; accessors create on first use.

    Thread-safe: creation and snapshots lock the name table (individual
    metric updates lock per metric, so hot paths never contend here).
    Reading a metric that exists, of exactly the kind asked for, takes
    no lock: a dict read is atomic, and an entry is never replaced.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type) -> Metric:
        m = self._metrics.get(name)
        if type(m) is kind:
            return m
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = kind(name)
                self._metrics[name] = m
            elif not isinstance(m, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(m).__name__}, "
                    f"not a {kind.__name__}"
                )
            return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def snapshot(self, include_cachestats: bool = True) -> dict:
        """Everything, JSON-ready, each kind keyed by metric name: counter
        and gauge values, and each histogram as its exact
        :meth:`Histogram.to_dict` (raw buckets, so two snapshots subtract
        exactly and the Prometheus renderer derives ``le`` bounds).
        Cachestats counters are included via the compatibility facade
        (``cache.<name>.hits`` / ``.misses``).
        """
        counters: dict[str, int] = {}
        gauges: dict[str, Optional[float]] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            metrics = [self._metrics[k] for k in sorted(self._metrics)]
        for m in metrics:
            if isinstance(m, Counter):
                counters[m.name] = m.value
            elif isinstance(m, Gauge):
                gauges[m.name] = m.value
            else:
                histograms[m.name] = m.to_dict()
        if include_cachestats:
            for name, (hits, misses) in sorted(cachestats.snapshot().items()):
                counters[f"cache.{name}.hits"] = hits
                counters[f"cache.{name}.misses"] = misses
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render(self, include_cachestats: bool = True) -> str:
        snap = self.snapshot(include_cachestats)
        lines = ["metrics:"]
        for name, v in snap["counters"].items():
            lines.append(f"  counter   {name:<36s} {v}")
        for name, v in snap["gauges"].items():
            lines.append(f"  gauge     {name:<36s} {v}")
        for name, data in snap["histograms"].items():
            s = Histogram.from_dict(name, data).summary()
            if s["count"]:
                lines.append(
                    f"  histogram {name:<36s} n={s['count']} "
                    f"p50={s['p50']:.4g} p90={s['p90']:.4g} "
                    f"p99={s['p99']:.4g} max={s['max']:.4g}"
                )
            else:
                lines.append(f"  histogram {name:<36s} n=0")
        return "\n".join(lines)


_REGISTRY = Registry()


def registry() -> Registry:
    """The process-global default registry."""
    return _REGISTRY


def latency_summary(
    seconds_by_key: Mapping[str, list], unit: float = 1.0
) -> dict[str, dict]:
    """Histogram-backed p50/p90/p99 summaries for grouped samples.

    The batch engine feeds this per program family; ``unit`` rescales
    (e.g. ``1e3`` for milliseconds in reports).
    """
    out: dict[str, dict] = {}
    for key in sorted(seconds_by_key):
        h = Histogram(key)
        for s in seconds_by_key[key]:
            h.observe(s * unit)
        out[key] = h.summary()
    return out
