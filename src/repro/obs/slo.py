"""The serve daemon's service-level objectives over cumulative metrics.

The daemon keeps two fixed objectives: warm cache hits answer within
:data:`WARM_THRESHOLD_MS` for a :data:`TARGET` fraction of requests
(``warm_latency``), and a :data:`TARGET` fraction of requests do not
error (``availability``).  :func:`serve_slo_report` evaluates both
against a metrics snapshot — the shape
:meth:`repro.obs.metrics.Registry.snapshot` returns — with the classic
burn-rate signal: ``burn = bad_fraction / error_budget`` (> 1 means the
objective is being consumed faster than its budget; sustained > 1 means
it will be violated).

The serve daemon reports them over its lifetime (``stats()["slo"]``).
Every entry carries its cumulative ``bad`` and ``total`` counts and its
``target``, so a reader that wants the burn over an interval subtracts
two reports' counts and applies :func:`burn` to the difference, which is
what :mod:`repro.obs.watch` does.
"""

from __future__ import annotations

from typing import Mapping

from .metrics import Histogram

#: The in-objective fraction both serve objectives ask for.
TARGET = 0.99
#: The latency a warm cache hit must answer within, in milliseconds.
WARM_THRESHOLD_MS = 25.0


def burn(bad: int, total: int, target: float) -> dict:
    """One compliance evaluation: fraction in-objective + burn rate.

    ``burn_rate`` is the bad fraction over the error budget
    (``1 - target``): 1.0 means spending the budget exactly as fast as
    allowed, above it the objective degrades.  No traffic is perfect
    compliance (burn 0) — an idle service violates nothing.
    """
    if total <= 0:
        return {"total": 0, "bad": 0, "compliance": 1.0, "burn_rate": 0.0}
    bad = min(bad, total)
    frac_bad = bad / total
    budget = 1.0 - target
    return {
        "total": total,
        "bad": bad,
        "compliance": 1.0 - frac_bad,
        "burn_rate": frac_bad / budget,
    }


def _slow_warm_hits(snapshot: Mapping) -> tuple[int, int]:
    """``(bad, total)`` of the ``serve.warm_ms`` histogram, at bucket
    resolution (conservative: a threshold inside a bucket excludes that
    bucket)."""
    data = snapshot.get("histograms", {}).get("serve.warm_ms")
    if data is None:
        return 0, 0
    h = Histogram.from_dict("serve.warm_ms", data)
    return h.count - h.count_le(WARM_THRESHOLD_MS), h.count


def serve_slo_report(snapshot: Mapping) -> dict:
    """Both serve objectives over ``snapshot`` (a registry snapshot, or
    the difference of two), JSON-ready and keyed by objective name:
    ``total``/``bad``/``compliance``/``burn_rate``, ``healthy`` (burn
    rate at most 1) and the objective's ``target``."""
    counters = snapshot.get("counters", {})
    objectives = {
        "warm_latency": _slow_warm_hits(snapshot),
        "availability": (
            counters.get("serve.errors", 0),
            counters.get("serve.requests", 0),
        ),
    }
    out: dict[str, dict] = {}
    for name, (bad, total) in objectives.items():
        entry = burn(bad, total, TARGET)
        entry["healthy"] = entry["burn_rate"] <= 1.0
        entry["target"] = TARGET
        out[name] = entry
    return out
