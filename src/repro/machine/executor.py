"""Operational communication measurement for an aligned program.

Walks every ADG edge over its iteration space and counts the actual
communication (elements moved, processor hops, broadcasts) that a
distributed-memory runtime would perform under a chosen distribution.
Under the identity distribution (one processor per template cell) the
hop count equals the paper's equation-1 cost exactly — the validation
experiment E11 asserts that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..adg.graph import ADG, ADGEdge
from ..align.cost import AlignmentMap
from ..align.pipeline import AlignmentPlan
from ..ir.symbols import LIV
from ..obs import spans as obs
from ..topology import Topology, distribution_metrics
from .comm import MoveCount, _axis_positions, count_move
from .distribution import Distribution, uniform


@dataclass
class EdgeTraffic:
    edge: ADGEdge
    count: MoveCount


@dataclass
class TrafficReport:
    edges: list[EdgeTraffic] = field(default_factory=list)

    @property
    def elements_moved(self) -> int:
        return sum(t.count.elements_moved for t in self.edges)

    @property
    def hop_cost(self) -> int:
        return sum(t.count.hop_cost for t in self.edges)

    @property
    def broadcast_elements(self) -> int:
        return sum(t.count.broadcast_elements for t in self.edges)

    @property
    def general_edges(self) -> int:
        return sum(1 for t in self.edges if t.count.general)

    @property
    def general_elements(self) -> int:
        """Elements moved by general (axis/stride-mismatch) comm — the
        analytic discrete-metric charge; hop_cost excludes them."""
        return sum(t.count.general_elements for t in self.edges)

    def nonzero(self) -> list[EdgeTraffic]:
        return [
            t
            for t in self.edges
            if t.count.elements_moved or t.count.broadcast_elements
        ]

    def summary(self) -> str:
        return (
            f"moved={self.elements_moved} hops={self.hop_cost} "
            f"broadcast={self.broadcast_elements} general_edges={self.general_edges}"
        )


def _shape_at(port, env: Mapping[LIV, int]) -> tuple[int, ...]:
    out = []
    for ext in port.shape:
        v = ext.evaluate(env)
        if v.denominator != 1 or v < 0:
            raise ValueError(f"extent {ext} evaluates to {v} at {env}")
        out.append(int(v))
    return tuple(out)


def coordinate_bounds(
    adg: ADG, alignments: AlignmentMap
) -> tuple[tuple[int, int], ...]:
    """Exact per-template-axis ``(lo, hi)`` cell bounds actually touched.

    Walks every edge over its iteration space and takes the min/max
    template coordinate reached by either endpoint's alignment on every
    non-replicated axis.  Distributions sized from these bounds are
    guaranteed to own every cell the traffic measurement will visit —
    mobile offsets routinely push coordinates negative, so a heuristic
    window anchored at 0 is not safe.  Untouched axes get ``(0, 0)``.
    """
    lo: list[int | None] = [None] * adg.template_rank
    hi: list[int | None] = [None] * adg.template_rank
    for e in adg.edges:
        for env in e.space.points():
            shape = _shape_at(e.tail, env)
            for port in (e.tail, e.head):
                align = alignments[port.key]
                pos = _axis_positions(align, shape, env)
                for t, (ax, arr) in enumerate(zip(align.axes, pos)):
                    if ax.is_replicated or arr.size == 0:
                        continue
                    a_lo, a_hi = int(arr.min()), int(arr.max())
                    lo[t] = a_lo if lo[t] is None else min(lo[t], a_lo)
                    hi[t] = a_hi if hi[t] is None else max(hi[t], a_hi)
    return tuple(
        (0, 0) if l is None else (l, h)  # type: ignore[misc]
        for l, h in zip(lo, hi)
    )


def measure_traffic(
    adg: ADG,
    alignments: AlignmentMap,
    dist: Distribution,
    topology: Topology | None = None,
) -> TrafficReport:
    """Count all residual communication of the aligned program.

    Every edge counts as executing (the worst-case trace).  ``topology``
    prices hops with the machine's interconnect metrics
    (:mod:`repro.topology`); ``None`` is the paper's L1 grid.
    """
    metrics = (
        None if topology is None else distribution_metrics(topology, dist)
    )
    report = TrafficReport()
    with obs.span(
        "machine.simulate",
        edges=len(adg.edges),
        topology="L1-grid" if topology is None else topology.spec(),
    ):
        for e in adg.edges:
            total = MoveCount()
            for env in e.space.points():
                shape = _shape_at(e.tail, env)
                mc = count_move(
                    alignments[e.tail.key],
                    alignments[e.head.key],
                    shape,
                    env,
                    dist,
                    metrics,
                )
                total = total + mc
            report.edges.append(EdgeTraffic(e, total))
    return report


def measure_plan(
    plan: AlignmentPlan,
    dist: Distribution | None = None,
    processors: tuple[int, ...] | None = None,
    scheme: str = "identity",
    topology: Topology | None = None,
) -> TrafficReport:
    """Measure an :class:`AlignmentPlan` under a distribution scheme.

    ``scheme`` is ``"identity"`` or a name in
    :data:`~repro.machine.distribution.SCHEMES`, built on every axis by
    :func:`~repro.machine.distribution.uniform` over the ``processors``
    grid, which non-identity schemes need.  The template window is the
    exact :func:`coordinate_bounds` of the aligned traffic, so the
    distribution owns every cell the measurement touches.  ``topology``
    selects the interconnect pricing hops (default: the paper's L1 grid).
    """
    adg = plan.adg
    if dist is None:
        if scheme == "identity":
            dist = Distribution.identity(adg.template_rank)
        elif processors is None:
            raise ValueError("non-identity schemes need a processor grid")
        else:
            bounds = coordinate_bounds(adg, plan.alignments)
            dist = uniform(scheme, bounds, processors)
    return measure_traffic(adg, plan.alignments, dist, topology=topology)
