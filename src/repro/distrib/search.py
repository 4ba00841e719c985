"""Search over the distribution-candidate space.

Every hop metric decomposes over template axes, so once a grid
factorization fixes the processor count per axis, the best scheme per
axis is an independent choice: :func:`_winners` prices each template
axis once for every grid — the axis's enumeration rows
(:func:`~repro.distrib.enumerate.row_spaces`) of all grids joined into
one integer array, one
:func:`~repro.distrib.vectorized.axis_row_hops` call — and each grid
takes the first minimum of its own slice.  The same call returns each
row's ``moved``, so a winner's cost is assembled from those numbers
(:func:`_plans`), never priced twice, and only the winning rows of the
plans returned become scheme records.  Every grid factorization is
solved this way, so the winner over all of them is the hop-optimal
distribution.  Cost orders by hops first, so only the grids tied at the
minimum hops can win, and ``moved`` breaks the tie.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import spans as obs
from ..topology import Topology
from .costmodel import CommProfile, CostVector
from .enumerate import Row, covered_size, row_spaces
from .plan import DistributionPlan
from .vectorized import _row_scheme, axis_row_hops, joint_moved

Winner = tuple[list[Row], int, int]
Space = tuple[tuple[int, ...], list[list[Row]]]


def _winners(
    profile: CommProfile,
    spaces: Sequence[Space],
    topology: Topology | None,
) -> list[Winner]:
    """Per grid of ``spaces``: the hop-optimal row per axis, and the
    hops and ``moved`` those rows price on their own axes.

    Each template axis is one
    :func:`~repro.distrib.vectorized.axis_row_hops` call over every
    grid's rows for it joined into one array, with one metric per grid;
    each grid then takes the first minimum of its own slice, so a tie
    goes to the earlier row in
    :func:`~repro.distrib.enumerate.axis_rows` order.  Neither sum has
    the profile's fixed cost or the joint rows in it (:func:`_plans`
    adds those).
    """
    metrics = [] if topology is None else [topology.metrics(grid) for grid, _ in spaces]
    axes: list[list[Row]] = [[] for _ in spaces]
    hops, moved = [0] * len(spaces), [0] * len(spaces)
    with obs.span(
        "distrib.front_price",
        candidates=sum(len(r) for _, rows in spaces for r in rows),
        axes=profile.template_rank,
        grids=len(spaces),
    ):
        for t in range(profile.template_rank):
            joined = [row for _, rows in spaces for row in rows[t]]
            runs = None if topology is None else [
                (m[t], len(rows[t])) for m, (_, rows) in zip(metrics, spaces)
            ]
            t_hops, t_moved = axis_row_hops(
                profile, t, np.array(joined, dtype=np.int64).reshape(-1, 4), runs
            )
            t_hops, t_moved = t_hops.tolist(), t_moved.tolist()
            stop = 0
            for g, (_, rows) in enumerate(spaces):
                start, stop = stop, stop + len(rows[t])
                own = t_hops[start:stop]
                i = start + own.index(min(own))
                axes[g].append(joined[i])
                hops[g] += t_hops[i]
                moved[g] += t_moved[i]
    return list(zip(axes, hops, moved))


def _plans(
    profile: CommProfile,
    winners: Sequence[Winner],
    searched: int,
    topology: Topology | None,
) -> list[DistributionPlan]:
    """The winners as plans, each cost assembled from its per-axis
    numbers: the profile's fixed cost, the axes' hops and ``moved``,
    the joint rows those schemes move, and the broadcast.  Each
    winner's rows become scheme records here."""
    rows = np.array([axes for axes, _, _ in winners], dtype=np.int64)
    joint = joint_moved(profile, rows).tolist()
    fixed = profile.fixed
    return [
        DistributionPlan(
            tuple(_row_scheme(*row) for row in axes),
            CostVector(fixed.hops + h, fixed.moved + m + j, profile.broadcast),
            searched=searched,
            topology=None if topology is None else topology.spec(),
        )
        for (axes, h, m), j in zip(winners, joint)
    ]


def _best_first(plans: list[DistributionPlan]) -> list[DistributionPlan]:
    """``plans`` ordered by cost, then the smaller grid."""
    return sorted(plans, key=lambda pl: (pl.cost, pl.grid))


def _spaces(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None,
) -> list[Space]:
    """Every realizable grid with its per-axis row lists."""
    spaces = list(row_spaces(profile, nprocs, topology))
    if not spaces:
        raise ValueError(
            f"{topology.spec() if topology else 'machine'}: no realizable "
            f"processor grid for {nprocs} processors on a rank-"
            f"{profile.template_rank} template"
        )
    return spaces


def plan_distribution(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> DistributionPlan:
    """The hop-optimal distribution for ``nprocs``.

    Every hop metric decomposes over axes (all :mod:`repro.topology`
    models are separable), so every grid shape is solved exactly by a
    per-axis argmin whose work is the per-axis candidate *sum* per grid,
    not the cross-product; the cross-product space covered is reported
    in ``searched``.  ``topology`` prices hops on the machine's
    interconnect and rules out unrealizable grid shapes; the default is
    the paper's open L1 grid.
    """
    spaces = _spaces(profile, nprocs, topology)
    with obs.span(
        "distrib.plan",
        nprocs=nprocs,
        grids=len(spaces),
        candidates=sum(len(r) for _, rows in spaces for r in rows),
    ):
        solved = _winners(profile, spaces, topology)
        # Cost orders by hops first and a grid's hop sum is its winner's
        # own (less the profile's fixed hops), so a grid above the
        # minimum cannot win: only the tied grids need ``moved``.
        least = min(hops for _, hops, _ in solved)
        tied = [w for w in solved if w[1] == least]
        obs.annotate(grids_tied=len(tied))
        plans = _plans(profile, tied, covered_size(spaces), topology)
        return _best_first(plans)[0]


def rank_plans(
    profile: CommProfile,
    nprocs: int,
    k: int = 4,
    topology: Topology | None = None,
) -> list[DistributionPlan]:
    """The ``k`` best distributions, one per grid shape, best first;
    every grid is ranked, so the list shows what the other grid shapes
    cost beside :func:`plan_distribution`'s answer.
    """
    spaces = _spaces(profile, nprocs, topology)
    # Ranking needs every grid's full cost: every winner's is assembled.
    winners = _winners(profile, spaces, topology)
    plans = _plans(profile, winners, len(spaces), topology)
    return _best_first(plans)[: max(1, k)]
