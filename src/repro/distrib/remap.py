"""The cost of moving a template window between two distributions.

A replan that keeps the program but changes the machine
(:func:`repro.passes.delta.replan`, strategy ``machine_only``) reports
what it would cost to move the data already laid out under the old
distribution onto the new one: :func:`remap_cost` prices that move cell
by cell over the base's occupied template window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..machine.distribution import Distribution
from ..topology import Topology
from .costmodel import CostVector


def remap_cost(
    window: Sequence[tuple[int, int]],
    src: Distribution,
    dst: Distribution,
    topology: Topology | None = None,
) -> CostVector:
    """Cost of redistributing every cell of ``window`` from src to dst.

    Vectorized over the full cell window: a cell moves when any axis
    changes its processor coordinate, and its hops are the per-axis
    interconnect distances summed (``topology=None``: the paper's L1
    grid).  Empty cells own no data, so this over-approximates the
    move exactly the way the executor's window does.
    """
    # The two distributions may sit on different logical grid shapes,
    # so the move is priced on the machine's *physical* axis extents:
    # one metric set for both ends.
    metrics = (
        None
        if topology is None
        else topology.metrics((None,) * src.rank)
    )
    extents = tuple(hi - lo + 1 for lo, hi in window)
    grids = np.indices(extents)
    coords = [g + lo for g, (lo, _) in zip(grids, window)]
    src_procs = src.map_cells(coords)
    dst_procs = dst.map_cells(coords)
    moved = None
    hops = None
    for t, (sp, dp) in enumerate(zip(src_procs, dst_procs)):
        m = sp != dp
        h = np.abs(sp - dp) if metrics is None else metrics[t].hops(sp, dp)
        moved = m if moved is None else (moved | m)
        hops = h if hops is None else hops + h
    assert moved is not None and hops is not None
    return CostVector(hops=int(hops.sum()), moved=int(moved.sum()))
