"""Distance metrics on positions (Section 2.3).

Two metrics, as in the paper:

* the **discrete metric** for axis and stride alignment — any change of
  axis or stride is general communication, cost 1 per element;
* the **grid (L1 / Manhattan) metric** for offset alignment — separable,
  so offsets are optimized independently per template axis.

``alignment_distance`` combines them for whole alignments, which is what
the operational cost evaluator (:mod:`repro.align.cost`) and the machine
simulator use.

The offset metric is the *default topology*'s cell distance — the
unbounded grid machine of :mod:`repro.topology`, whose per-axis metric
is exactly the paper's L1.  Alignment happens on the conceptually
infinite template, before any processor mapping, so the alignment
phases always price on that machine; finite interconnects enter once a
distribution maps cells to processors (:mod:`repro.machine`,
:mod:`repro.distrib`).
"""

from __future__ import annotations

from typing import Mapping

from ..ir.affine import Scalar, scalar
from ..ir.symbols import LIV
from ..topology import default_topology
from .position import Alignment

# The identity machine every alignment-phase distance is measured on.
_CELL_METRIC = default_topology()
_AXIS_METRIC = _CELL_METRIC.axis_metric()


def discrete(a: object, b: object) -> int:
    """d(p, q) = 0 if p == q else 1."""
    return 0 if a == b else 1


def grid(p: tuple[Scalar, ...], q: tuple[Scalar, ...]) -> Scalar:
    """Distance between two template cells on the default topology
    (the unbounded grid — L1, per the paper)."""
    return _CELL_METRIC.distance(p, q)


def axes_strides_equal(a: Alignment, b: Alignment, env: Mapping[LIV, int]) -> bool:
    """Whether two alignments agree on axis mapping and stride *values* at
    the given iteration (mobile strides compare pointwise)."""
    if a.axis_signature() != b.axis_signature():
        return False
    for ax_a, ax_b in zip(a.axes, b.axes):
        if ax_a.is_body:
            assert ax_a.stride is not None and ax_b.stride is not None
            if ax_a.stride.evaluate(env) != ax_b.stride.evaluate(env):
                return False
    return True


def alignment_distance(
    a: Alignment,
    b: Alignment,
    env: Mapping[LIV, int],
    elements: int,
) -> Scalar:
    """Per-iteration realignment cost of moving an object of ``elements``
    elements from alignment ``a`` to ``b`` at LIV environment ``env``.

    * axis or stride mismatch: general communication — every element
      moves: cost = ``elements`` (discrete metric times data weight);
    * otherwise: grid metric on the offsets, times ``elements`` — the L1
      offset difference is the per-element move distance, identical for
      every element when strides agree;
    * an edge into a replicated target is a broadcast: cost = elements
      (times the replication degree is a storage matter, not counted —
      Section 5 counts the object size);
    * an edge out of a replicated source costs nothing on that axis (a
      copy is already wherever it needs to be).
    """
    if a.template_rank != b.template_rank:
        raise ValueError("alignments live in different templates")
    if not axes_strides_equal(a, b, env):
        return elements
    total = 0
    for ax_a, ax_b in zip(a.axes, b.axes):
        if ax_b.is_replicated:
            if not ax_a.is_replicated:
                # Broadcast along this axis: pay the object size once.
                total += elements
            continue
        if ax_a.is_replicated:
            continue  # source replicated: a copy exists at the target offset
        d = _AXIS_METRIC.distance(
            ax_a.offset.evaluate(env), ax_b.offset.evaluate(env)
        )
        total += d * elements
    return scalar(total)
