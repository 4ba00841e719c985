"""Communication counting for one object move.

Given an object (its symbolic shape evaluated at a LIV environment), the
alignments at the two ends of an edge, and a distribution, counts:

* ``elements_moved`` — elements whose owning processor changes (the
  message volume a runtime would ship);
* ``hop_cost`` — per-element processor distance summed over elements
  (the paper's grid metric made operational — equal to equation 1
  exactly under the identity distribution — or, given per-axis
  ``metrics`` from :mod:`repro.topology`, the machine interconnect's
  distance);
* ``broadcast_elements`` — elements broadcast along replicated axes.

General communication (axis or stride mismatch) has no routing
distance: the whole object moves, but which links it crosses is not a
function of any topology, so general moves carry ``hop_cost == 0`` and
are tallied in ``general_elements`` (the analytic discrete-metric
charge) as well as ``elements_moved``.  Under the identity distribution
this keeps the equation-1 identity exact even on programs with general
edges: ``hop_cost + broadcast_elements + general_elements`` equals the
paper's analytic cost.

All counting is vectorized: element positions are affine images of
index grids, so a d-dimensional object costs O(elements) numpy work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..align.position import Alignment
from ..ir.affine import AffineForm
from ..ir.symbols import LIV
from ..topology import AxisMetric
from .distribution import Distribution


@dataclass
class MoveCount:
    elements: int = 0  # object size
    elements_moved: int = 0
    hop_cost: int = 0  # topological routing distance; 0 for general moves
    broadcast_elements: int = 0
    general: bool = False  # axis/stride mismatch: everything moved
    general_elements: int = 0  # elements moved by general communication

    def __add__(self, other: "MoveCount") -> "MoveCount":
        return MoveCount(
            self.elements + other.elements,
            self.elements_moved + other.elements_moved,
            self.hop_cost + other.hop_cost,
            self.broadcast_elements + other.broadcast_elements,
            self.general or other.general,
            self.general_elements + other.general_elements,
        )


def _integer_at(what: str, form: AffineForm, env: Mapping[LIV, int]) -> int:
    """``form`` at ``env``; a template cell has no fractional coordinate."""
    v = form.evaluate(env)
    if type(v) is not int:
        raise ValueError(f"{what} {form} evaluates to {v} at {env}")
    return v


def _axis_positions(
    align: Alignment,
    shape: tuple[int, ...],
    env: Mapping[LIV, int],
) -> list[np.ndarray]:
    """Template coordinates per axis for every element, as broadcastable
    index grids (Fortran 1-based indices)."""
    grids = np.indices(shape) + 1 if shape else None
    out: list[np.ndarray] = []
    for ax in align.axes:
        if ax.is_replicated:
            out.append(np.zeros(shape or (), dtype=np.int64))
            continue
        off = _integer_at("offset", ax.offset, env)
        if ax.is_body:
            assert ax.array_axis is not None and ax.stride is not None
            stride = _integer_at("stride", ax.stride, env)
            idx = grids[ax.array_axis] if grids is not None else np.array(1)
            out.append(off + stride * idx)
        else:
            base = np.zeros(shape or (), dtype=np.int64)
            out.append(base + off)
    return out


def count_move(
    src: Alignment,
    dst: Alignment,
    shape: tuple[int, ...],
    env: Mapping[LIV, int],
    dist: Distribution,
    metrics: Sequence[AxisMetric] | None = None,
) -> MoveCount:
    """Count the communication of moving one object from src to dst.

    ``metrics`` (one per template axis, typically from
    :func:`repro.topology.distribution_metrics`) prices hops with the
    machine's interconnect; ``None`` is the paper's L1 grid metric.
    """
    n = int(np.prod(shape)) if shape else 1
    mc = MoveCount(elements=n)
    # Axis/stride agreement (pointwise at this iteration).  General
    # communication moves everything but has no per-topology routing
    # distance, so hop_cost stays 0.
    if src.axis_signature() != dst.axis_signature():
        mc.general = True
        mc.elements_moved = n
        mc.general_elements = n
        return mc
    for a1, a2 in zip(src.axes, dst.axes):
        if a1.is_body:
            assert a1.stride is not None and a2.stride is not None
            if a1.stride.evaluate(env) != a2.stride.evaluate(env):
                mc.general = True
                mc.elements_moved = n
                mc.general_elements = n
                return mc
    # Broadcast axes.
    for a1, a2 in zip(src.axes, dst.axes):
        if a2.is_replicated and not a1.is_replicated:
            mc.broadcast_elements += n
    # Offset moves on non-replicated axes.
    src_pos = _axis_positions(src, shape, env)
    dst_pos = _axis_positions(dst, shape, env)
    active = [
        i
        for i, (a1, a2) in enumerate(zip(src.axes, dst.axes))
        if not (a1.is_replicated or a2.is_replicated)
    ]
    if active:
        s = [src_pos[i] for i in active]
        d = [dst_pos[i] for i in active]
        sub = Distribution(tuple(dist.axes[i] for i in active))
        sub_metrics = (
            None if metrics is None else tuple(metrics[i] for i in active)
        )
        moved = sub.moved_mask(s, d)
        hops = sub.hop_distance(s, d, sub_metrics)
        mc.elements_moved = int(np.sum(moved))
        mc.hop_cost = int(np.sum(hops))
    return mc
