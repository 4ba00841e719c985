"""Search over the distribution-candidate space.

Two regimes, chosen by the size of the candidate space:

* **Exhaustive** (small spaces): the L1 hop metric decomposes over
  template axes, so once a grid factorization fixes the processor count
  per axis, the best scheme per axis is an independent choice.  Each
  factorization is solved exactly as a discrete labeling problem on a
  star graph (one node per axis, an anchor carrying the per-candidate
  hop costs) reusing the compact dynamic programming of
  :mod:`repro.solvers.dp`; the winner over all factorizations is the
  hop-optimal distribution.  The DP already knows each grid winner's
  hops, and cost orders by hops first, so only the grids tied at the
  minimum are priced in full (``moved`` breaks the tie).

* **Greedy + local search** (large spaces): greedy per-axis choice on a
  sample of grid shapes, then hill-climbing over the factorization
  neighborhood (moving one prime factor between two axes), with random
  restarts — the GSAT recipe for discrete local search: cheap moves,
  steepest descent, restart when stuck.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..cachestats import _cell
from ..obs import spans as obs
from ..solvers.dp import DiscreteLabelingProblem
from ..topology import AxisMetric, Topology
from ..topology.models import most_balanced
from .costmodel import CommProfile, CostVector, window_extents
from .enumerate import (
    DEFAULT_BLOCK_SIZES,
    axis_candidates,
    balanced_factorization,
    candidate_spaces,
    covered_size,
    grid_factorizations,
)
from .plan import AxisPlan, DistributionPlan

EXHAUSTIVE_LIMIT = 20_000
_ANCHOR = "$cost"
# Shared with repro.distrib.vectorized: [vectorized, scalar] candidate
# pricings — the counter's hit rate is the fraction that took the fast path.
_FRONT_STATS = _cell("distrib.front_price")


def _metrics_for_grid(
    topology: Topology | None, grid: Sequence[int]
) -> tuple[AxisMetric, ...] | None:
    return None if topology is None else topology.metrics(tuple(grid))


def _axis_hop_table(
    profile: CommProfile,
    cands: Sequence[Sequence[AxisPlan]],
    metrics: Sequence[AxisMetric] | None = None,
    vectorize: bool = True,
) -> list[list[int]]:
    """Per-axis candidate hop costs for one grid's whole front.

    The default path prices each axis's entire candidate list in one
    vectorized call (:func:`~repro.distrib.vectorized.axis_front_hops`);
    ``vectorize=False`` keeps the per-candidate pure-Python path — the
    differential oracle, and the ``--no-vectorize`` debugging fallback.
    """
    with obs.span(
        "distrib.front_price",
        candidates=sum(len(clist) for clist in cands),
        axes=len(cands),
        vectorized=vectorize,
    ):
        if vectorize:
            from .vectorized import axis_front_hops

            return [
                [
                    int(h)
                    for h in axis_front_hops(
                        profile,
                        t,
                        clist,
                        None if metrics is None else metrics[t],
                    )
                ]
                for t, clist in enumerate(cands)
            ]
        _FRONT_STATS[1] += sum(len(clist) for clist in cands)
        return [
            [
                profile.axis_hops(
                    t,
                    c.to_axis_distribution(),
                    None if metrics is None else metrics[t],
                )
                for c in clist
            ]
            for t, clist in enumerate(cands)
        ]


def _solve_axes_dp(
    profile: CommProfile,
    cands: Sequence[Sequence[AxisPlan]],
    metrics: Sequence[AxisMetric] | None = None,
    vectorize: bool = True,
) -> tuple[list[AxisPlan], int]:
    """Exact per-axis choice by DP on a star-shaped labeling problem.

    Candidate hop costs become edges to a pinned anchor node whose
    predicate charges the weight exactly when the axis picks that
    candidate; the star is a tree, so
    :meth:`~repro.solvers.dp.DiscreteLabelingProblem.solve_tree` is
    exact.  (The per-axis independence makes this equivalent to an
    argmin per axis — the DP formulation keeps the planner on the same
    machinery the alignment phases use, and stays correct if coupled
    inter-axis costs are ever added as real edges.)
    """
    with obs.span(
        "distrib.axis_dp",
        axes=len(cands),
        candidates=sum(len(clist) for clist in cands),
        vectorized=vectorize,
    ):
        prob = DiscreteLabelingProblem()
        hops = _axis_hop_table(profile, cands, metrics, vectorize)
        for t, clist in enumerate(cands):
            prob.add_node(t, list(range(len(clist))))
            for ci in range(len(clist)):
                w = hops[t][ci]
                if w:
                    # One anchor per (axis, candidate): parallel edges to a
                    # shared anchor would not be a forest.
                    anchor = (_ANCHOR, t, ci)
                    prob.fix_node(anchor, 0)
                    prob.add_edge(
                        t,
                        anchor,
                        w,
                        predicate=lambda lu, lv, ci=ci: lu != ci,
                    )
        res = prob.solve_tree()
        chosen = [clist[res.labels[t]] for t, clist in enumerate(cands)]
        return chosen, int(res.cost)


def _distribution(axes: Sequence[AxisPlan]):
    from ..machine.distribution import Distribution

    return Distribution(tuple(a.to_axis_distribution() for a in axes))


def _price_winners(
    profile: CommProfile,
    winners: Sequence[Sequence[AxisPlan]],
    topology: Topology | None,
    vectorize: bool,
) -> list[CostVector]:
    """Full cost of each grid winner: one vectorized front, or the
    scalar oracle per winner under ``vectorize=False``."""
    dists = [_distribution(axes) for axes in winners]
    if vectorize:
        from .vectorized import front_costs

        return front_costs(profile, dists, topology)
    return [profile.evaluate(dist, topology) for dist in dists]


def _plan(
    axes: Sequence[AxisPlan],
    cost: CostVector,
    exact: bool,
    searched: int,
    topology: Topology | None,
) -> DistributionPlan:
    return DistributionPlan(
        tuple(axes),
        cost,
        exact,
        searched,
        topology=None if topology is None else topology.spec(),
    )


def plan_distribution(
    profile: CommProfile,
    nprocs: int,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    seed: int = 0,
    restarts: int = 8,
    topology: Topology | None = None,
    vectorize: bool = True,
) -> DistributionPlan:
    """Choose the distribution minimizing modeled hops for ``nprocs``.

    Exhaustive (hop-optimal) when the work of solving every grid shape
    exactly is affordable; otherwise greedy + local search.  Because
    every hop metric decomposes over axes (all :mod:`repro.topology`
    models are separable), the exhaustive DP's work is the per-axis
    candidate *sum* per grid (not the cross-product), so
    ``exhaustive_limit`` bounds that sum over all grid shapes — the
    cross-product space actually covered (reported in ``searched``) is
    usually far larger.  ``topology`` prices hops on the machine's
    interconnect and rules out unrealizable grid shapes; the default is
    the paper's open L1 grid.  ``vectorize`` selects the batched NumPy
    front pricing (the default; plans are identical either way —
    ``False`` is the pure-Python differential oracle, exposed on the
    CLI as ``--no-vectorize``).
    """
    spaces = list(candidate_spaces(profile, nprocs, block_sizes, topology))
    if not spaces:
        raise ValueError(
            f"{topology.spec() if topology else 'machine'}: no realizable "
            f"processor grid for {nprocs} processors on a rank-"
            f"{profile.template_rank} template"
        )
    dp_work = sum(len(c) for _, cands in spaces for c in cands)
    with obs.span(
        "distrib.plan",
        nprocs=nprocs,
        grids=len(spaces),
        candidates=dp_work,
        exhaustive=dp_work <= exhaustive_limit,
        vectorized=vectorize,
    ):
        if dp_work > exhaustive_limit:
            # No tie rule here: the search's one result is priced in full.
            obs.annotate(grids_tied=0, grids_priced=1)
            return _local_search(
                profile, nprocs, block_sizes, seed, restarts, topology, vectorize
            )
        covered = covered_size(spaces)
        solved = []
        for grid, cands in spaces:
            metrics = _metrics_for_grid(topology, grid)
            solved.append(_solve_axes_dp(profile, cands, metrics, vectorize))
        # Cost orders by hops first and the DP's hop sum is the winner's
        # own (less the profile's fixed hops), so a grid above the
        # minimum cannot win: only the tied grids need ``moved``.
        least = min(hops for _, hops in solved)
        tied = [axes for axes, hops in solved if hops == least]
        obs.annotate(grids_tied=len(tied), grids_priced=len(tied))
        costs = _price_winners(profile, tied, topology, vectorize)
        plans = [
            _plan(axes, cost, True, covered, topology)
            for axes, cost in zip(tied, costs)
        ]
        return min(plans, key=lambda pl: (pl.cost, pl.grid))


def rank_plans(
    profile: CommProfile,
    nprocs: int,
    k: int = 4,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    max_grids: int = 64,
    seed: int = 0,
    window: Sequence[tuple[int, int]] | None = None,
    topology: Topology | None = None,
    vectorize: bool = True,
) -> list[DistributionPlan]:
    """The ``k`` best distributions, one per grid shape, best first.

    Used by the inter-phase remap planner, which needs *alternatives*:
    the best distribution for one phase may lose globally once
    redistribution edges are priced in.  ``window`` (default: the
    profile's own) lets that planner size candidates over the union of
    all phase windows so every candidate owns every remapped cell.
    """
    grids = grid_factorizations(nprocs, profile.template_rank)
    if topology is not None:
        grids = [g for g in grids if topology.supports_grid(g)]
        if not grids:
            raise ValueError(
                f"{topology.spec()}: no realizable processor grid for "
                f"{nprocs} processors on a rank-{profile.template_rank} "
                "template"
            )
    if len(grids) > max_grids:
        rng = random.Random(seed)
        keep = {most_balanced(grids)}
        keep.update(
            grids[i] for i in rng.sample(range(len(grids)), max_grids - 1)
        )
        grids = sorted(keep)
    win = tuple(window) if window is not None else profile.window
    extents = tuple(hi - lo + 1 for lo, hi in win)
    winners = []
    for grid in grids:
        cands = [
            axis_candidates(lo, ext, p, block_sizes)
            for (lo, _), ext, p in zip(win, extents, grid)
        ]
        metrics = _metrics_for_grid(topology, grid)
        axes, _ = _solve_axes_dp(profile, cands, metrics, vectorize)
        winners.append(axes)
    # Ranking needs every grid's full cost, so every winner is priced.
    costs = _price_winners(profile, winners, topology, vectorize)
    plans = [
        _plan(axes, cost, True, len(grids), topology)
        for axes, cost in zip(winners, costs)
    ]
    plans.sort(key=lambda pl: (pl.cost, pl.grid))
    return plans[: max(1, k)]


# -- greedy + local search ----------------------------------------------------


def _greedy_axes(
    profile: CommProfile,
    grid: tuple[int, ...],
    block_sizes: Sequence[int],
    topology: Topology | None = None,
    vectorize: bool = True,
) -> tuple[list[AxisPlan], int]:
    """Per-axis argmin of hop cost (the per-grid optimum)."""
    extents = window_extents(profile)
    metrics = _metrics_for_grid(topology, grid)
    cand_lists = [
        axis_candidates(lo, ext, p, block_sizes)
        for (lo, _), ext, p in zip(profile.window, extents, grid)
    ]
    hops = _axis_hop_table(profile, cand_lists, metrics, vectorize)
    axes: list[AxisPlan] = []
    total = profile.fixed.hops
    for cands, costs in zip(cand_lists, hops):
        best = min(range(len(cands)), key=costs.__getitem__)
        axes.append(cands[best])
        total += costs[best]
    return axes, total


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _neighbor_grids(grid: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Grids reachable by moving one prime factor between two axes."""
    out = set()
    for i, pi in enumerate(grid):
        for f in set(_prime_factors(pi)):
            for j in range(len(grid)):
                if i == j:
                    continue
                g = list(grid)
                g[i] //= f
                g[j] *= f
                out.add(tuple(g))
    return sorted(out)


def _local_search(
    profile: CommProfile,
    nprocs: int,
    block_sizes: Sequence[int],
    seed: int,
    restarts: int,
    topology: Topology | None = None,
    vectorize: bool = True,
) -> DistributionPlan:
    def supported(g: tuple[int, ...]) -> bool:
        return topology is None or topology.supports_grid(g)

    rng = random.Random(seed)
    rank = profile.template_rank
    searched = 0
    best_axes: list[AxisPlan] | None = None
    best_hops = 0
    for r in range(max(1, restarts)):
        if r == 0:
            grid = balanced_factorization(nprocs, rank)
        else:
            # random restart: shuffle prime factors onto axes
            g = [1] * rank
            for f in _prime_factors(nprocs):
                g[rng.randrange(rank)] *= f
            grid = tuple(g)
        if not supported(grid):
            continue
        axes, hops = _greedy_axes(profile, grid, block_sizes, topology, vectorize)
        searched += 1
        improved = True
        while improved:
            improved = False
            for ng in _neighbor_grids(grid):
                if not supported(ng):
                    continue
                n_axes, n_hops = _greedy_axes(
                    profile, ng, block_sizes, topology, vectorize
                )
                searched += 1
                if n_hops < hops:
                    grid, axes, hops = ng, n_axes, n_hops
                    improved = True
                    break  # first-improvement, GSAT style
        if best_axes is None or hops < best_hops:
            best_axes, best_hops = axes, hops
    if best_axes is None:
        # Every restart grid was unrealizable: fall back to the first
        # supported factorization (plan_distribution guarantees one).
        for grid in grid_factorizations(nprocs, rank):
            if supported(grid):
                best_axes, _ = _greedy_axes(
                    profile, grid, block_sizes, topology, vectorize
                )
                searched += 1
                break
    assert best_axes is not None
    # The search's one result: priced by the scalar evaluator.
    cost = profile.evaluate(_distribution(best_axes), topology)
    return _plan(best_axes, cost, False, searched, topology)
