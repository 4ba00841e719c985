"""Service-level objectives evaluated over cumulative metrics.

Declarative objectives (:class:`LatencySLO`, :class:`ErrorRateSLO`)
are evaluated by :class:`SLOTracker` against a metrics snapshot — the
shape :meth:`repro.obs.metrics.Registry.snapshot` returns — with the
classic burn-rate signal: ``burn = bad_fraction / error_budget`` (> 1
means the objective is being consumed faster than its budget; sustained
> 1 means it will be violated).

The serve daemon reports its objectives over its lifetime
(``stats()["slo"]``).  Every entry carries its cumulative ``bad`` and
``total`` counts and its ``target``, so a reader that wants the burn
over an interval subtracts two reports' counts and applies
:func:`burn` to the difference, which is what :mod:`repro.obs.watch`
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .metrics import Histogram


def _check_target(target: float) -> None:
    if not 0.0 < target < 1.0:
        raise ValueError(f"SLO target must be in (0, 1): {target}")


@dataclass(frozen=True)
class LatencySLO:
    """``target`` fraction of requests must complete within
    ``threshold_ms`` — evaluated against a histogram of millisecond
    latencies at bucket resolution (conservative: a threshold inside a
    bucket excludes that bucket)."""

    name: str
    histogram: str
    threshold_ms: float
    target: float

    def __post_init__(self) -> None:
        _check_target(self.target)

    def bad_and_total(self, snapshot: Mapping) -> tuple[int, int]:
        data = snapshot.get("histograms", {}).get(self.histogram)
        if data is None:
            return 0, 0
        h = Histogram.from_dict(self.histogram, data)
        return h.count - h.count_le(self.threshold_ms), h.count


@dataclass(frozen=True)
class ErrorRateSLO:
    """``target`` fraction of requests (counter ``total``) must not be
    errors (counter ``errors``)."""

    name: str
    total: str
    errors: str
    target: float

    def __post_init__(self) -> None:
        _check_target(self.target)

    def bad_and_total(self, snapshot: Mapping) -> tuple[int, int]:
        counters = snapshot.get("counters", {})
        return counters.get(self.errors, 0), counters.get(self.total, 0)


Objective = Union[LatencySLO, ErrorRateSLO]


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


class SLOTracker:
    """A checked set of objectives, evaluated against any snapshot."""

    def __init__(self, objectives: list) -> None:
        seen = set()
        for obj in objectives:
            if obj.name in seen:
                raise ValueError(f"duplicate SLO name {obj.name!r}")
            seen.add(obj.name)
        self.objectives = list(objectives)

    def report(self, snapshot: Mapping) -> dict:
        """Every objective over ``snapshot`` (a registry snapshot, or the
        difference of two), JSON-ready and keyed by SLO name:
        ``total``/``bad``/``compliance``/``burn_rate``, ``healthy`` (burn
        rate at most 1) and the objective's ``target``."""
        out: dict[str, dict] = {}
        for slo in self.objectives:
            entry = burn(*slo.bad_and_total(snapshot), slo.target)
            entry["healthy"] = entry["burn_rate"] <= 1.0
            entry["target"] = slo.target
            out[slo.name] = entry
        return out


def default_serve_slos() -> list:
    """The serve daemon's out-of-the-box objectives: warm cache hits
    answer within 25ms for 99% of requests, and 99% of requests do not
    error."""
    return [
        LatencySLO(
            "warm_latency",
            histogram="serve.warm_ms",
            threshold_ms=25.0,
            target=0.99,
        ),
        ErrorRateSLO(
            "availability",
            total="serve.requests",
            errors="serve.errors",
            target=0.99,
        ),
    ]
