"""Exact evaluation of the realignment cost (equation 1).

``C(pi) = sum_edges sum_{i in space} c_e * w(i) * d(pi_x(i), pi_y(i))``

with the paper's composite metric: the discrete metric on axis/stride
labels (mismatch = general communication = the whole object moves) and
the grid (L1) metric on offsets, plus the broadcast convention of
Section 5 (an N->R edge pays the object size once; an R->N or R->R edge
pays nothing for the replicated axis).

Evaluation is exact: sign-pure boxes use the closed-form moment sums;
boxes where the affine span changes sign are split recursively (binary
subdivision terminates because an affine function on a shrinking box
eventually has constant sign, at the latest on singletons).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..adg.graph import ADG, ADGEdge
from ..cachestats import MISS, BoundedCache
from ..ir.affine import AffineForm, Scalar, scalar
from ..ir.closedform import Moments, weighted_moments
from ..ir.itspace import IterationSpace
from ..ir.polynomial import Polynomial
from .position import Alignment
from .span import has_sign_change

AlignmentMap = dict[str, Alignment]  # keyed by Port.key

_ENUM_LIMIT = 4096

# Edge-cost construction is re-run per pipeline phase (objective
# evaluation, assembly, breakdown) and per batched program; the moment
# sums are pure functions of hashable (space, weight) values, so they
# memoize safely across edges, phases and programs within a process.
_MOMENTS = BoundedCache("align.moments", maxsize=4096)


def cached_moments(space: IterationSpace, weight: Polynomial) -> Moments:
    """Memoized :func:`repro.ir.closedform.weighted_moments`."""
    key = (space, weight)
    m = _MOMENTS.lookup(key)
    if m is MISS:
        m = _MOMENTS.store(key, weighted_moments(space, weight))
    return m  # type: ignore[return-value]


def abs_weighted_span(
    span: AffineForm, weight: Polynomial, space: IterationSpace
) -> Scalar:
    """Exact ``sum_i weight(i) * |span(i)|`` over the space.

    Requires the weight to be nonnegative on the space (data weights
    are element counts, so they are).
    """
    if space.is_empty():
        return 0
    if space.depth == 0:
        w = weight.const if weight.is_constant else weight.evaluate({})
        return scalar(abs(span.const) * w)
    if not has_sign_change(span, space):
        m = cached_moments(space, weight)
        return scalar(abs(m.span_sum(span.const, span.coeffs)))
    if space.count <= _ENUM_LIMIT:
        total = 0
        for env in space.points():
            total += weight.evaluate(env) * abs(span.evaluate(env))
        return scalar(total)
    # Split the largest axis in half and recurse.
    sizes = [len(t) for t in space.triplets]
    axis = max(range(space.depth), key=lambda j: sizes[j])
    trip = space.triplets[axis]
    left, right = trip.split_at(len(trip) // 2)
    total = 0
    for part in (left, right):
        if not part.is_empty():
            total += abs_weighted_span(
                span, weight, space.restricted(space.livs[axis], part)
            )
    return scalar(total)


@dataclass
class EdgeCost:
    edge: ADGEdge
    kind: str  # "aligned", "shift", "general", "broadcast"
    cost: Scalar


def edge_cost(e: ADGEdge, alignments: Mapping[str, Alignment]) -> EdgeCost:
    """Exact realignment cost of one edge under the alignment map."""
    ax = alignments[e.tail.key]
    ay = alignments[e.head.key]
    cw = scalar(Fraction(e.control_weight).limit_denominator(10**9))
    if (
        ax.axis_signature() != ay.axis_signature()
        or ax.stride_signature() != ay.stride_signature()
    ):
        m = cached_moments(e.space, e.weight)
        return EdgeCost(e, "general", scalar(cw * m.m0))
    total = 0
    kind = "aligned"
    for tau in range(ax.template_rank):
        a1, a2 = ax.axes[tau], ay.axes[tau]
        if a2.is_replicated:
            if not a1.is_replicated:
                m = cached_moments(e.space, e.weight)
                total += m.m0
                kind = "broadcast"
            continue
        if a1.is_replicated:
            continue
        span = a1.offset - a2.offset
        if span == AffineForm(0):
            continue
        c = abs_weighted_span(span, e.weight, e.space)
        if c != 0:
            total += c
            if kind == "aligned":
                kind = "shift"
    return EdgeCost(e, kind, scalar(cw * total))


def total_cost(adg: ADG, alignments: Mapping[str, Alignment]) -> Scalar:
    return scalar(sum(edge_cost(e, alignments).cost for e in adg.edges))


def cost_breakdown(
    adg: ADG, alignments: Mapping[str, Alignment]
) -> list[EdgeCost]:
    return [edge_cost(e, alignments) for e in adg.edges]


def offset_only_cost(
    adg: ADG,
    skeleton: Mapping[str, Alignment],
    offsets: Mapping[tuple[str, int], AffineForm],
    replicated: set[tuple[str, int]] | None = None,
) -> Scalar:
    """Grid-metric cost of an offset assignment, skipping edges that are
    general communication (skeleton mismatch) or replicated — the exact
    objective the mobile-offset algorithms of Section 4 approximate."""
    replicated = replicated or set()
    total = 0
    for e in adg.edges:
        if skeleton[e.tail.key] != skeleton[e.head.key]:
            continue
        cw = scalar(Fraction(e.control_weight).limit_denominator(10**9))
        for tau in range(adg.template_rank):
            if (e.tail.key, tau) in replicated or (e.head.key, tau) in replicated:
                continue
            span = offsets[(e.tail.key, tau)] - offsets[(e.head.key, tau)]
            if span == AffineForm(0):
                continue
            total += cw * abs_weighted_span(span, e.weight, e.space)
    return scalar(total)


def assemble_alignments(
    adg: ADG,
    skeleton: Mapping[str, Alignment],
    offsets: Mapping[tuple[str, int], AffineForm],
    replicated: set[tuple[str, int]] | None = None,
) -> AlignmentMap:
    """Combine skeletons, offsets and replication labels into full
    per-port alignments."""
    from .position import AxisAlignment, ReplicatedExtent

    replicated = replicated or set()
    out: AlignmentMap = {}
    for p in adg.ports():
        skel = skeleton[p.key]
        axes = []
        for tau, ax in enumerate(skel.axes):
            off = offsets.get((p.key, tau), AffineForm(0))
            rep = None
            if (p.key, tau) in replicated and not ax.is_body:
                rep = ReplicatedExtent(full=True)
            axes.append(AxisAlignment(ax.array_axis, ax.stride, off, rep))
        out[p.key] = Alignment(tuple(axes))
    return out
