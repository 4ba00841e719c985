"""Search over the distribution-candidate space.

Every hop metric decomposes over template axes, so once a grid
factorization fixes the processor count per axis, the best scheme per
axis is an independent choice: :func:`_best_axes` prices each axis's
whole candidate list in one array call and takes the first minimum.
Two regimes share it, chosen by the size of the candidate space:

* **Exhaustive** (small spaces): every grid factorization is solved
  exactly; the winner over all factorizations is the hop-optimal
  distribution.  The argmin already knows each grid winner's hops, and
  cost orders by hops first, so only the grids tied at the minimum are
  priced in full (``moved`` breaks the tie).

* **Local search** (large spaces): the per-grid optimum on a sample of
  grid shapes, then hill-climbing over the factorization neighborhood
  (moving one prime factor between two axes), with random restarts —
  the GSAT recipe for discrete local search: cheap moves, steepest
  descent, restart when stuck.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..machine.distribution import AxisDistribution, Distribution
from ..obs import spans as obs
from ..topology import AxisMetric, Topology
from ..topology.models import most_balanced
from .costmodel import CommProfile, CostVector
from .enumerate import (
    DEFAULT_BLOCK_SIZES,
    balanced_factorization,
    candidate_spaces,
    covered_size,
    grid_candidates,
    grid_factorizations,
)
from .plan import DistributionPlan
from .vectorized import axis_front_hops, front_costs

EXHAUSTIVE_LIMIT = 20_000


def _metrics_for_grid(
    topology: Topology | None, grid: Sequence[int]
) -> tuple[AxisMetric, ...] | None:
    return None if topology is None else topology.metrics(tuple(grid))


def _best_axes(
    profile: CommProfile,
    cands: Sequence[Sequence[AxisDistribution]],
    metrics: Sequence[AxisMetric] | None = None,
) -> tuple[list[AxisDistribution], int]:
    """The hop-optimal scheme per axis for one grid, and their hop sum.

    Each axis's candidate list is priced in one
    :func:`~repro.distrib.vectorized.axis_front_hops` call and the first
    minimum wins, so a tie goes to the earlier candidate in
    :func:`~repro.distrib.enumerate.axis_candidates` order.  The sum is
    the axes' own hops: ``profile.fixed.hops`` is not in it.
    """
    with obs.span(
        "distrib.front_price",
        candidates=sum(len(clist) for clist in cands),
        axes=len(cands),
    ):
        axes: list[AxisDistribution] = []
        total = 0
        for t, clist in enumerate(cands):
            hops = axis_front_hops(
                profile, t, clist, None if metrics is None else metrics[t]
            )
            best = int(hops.argmin())
            axes.append(clist[best])
            total += int(hops[best])
        return axes, total


def _plan(
    axes: Sequence[AxisDistribution],
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


def _priced(
    profile: CommProfile,
    winners: Sequence[Sequence[AxisDistribution]],
    searched: int,
    topology: Topology | None,
) -> list[DistributionPlan]:
    """The grid winners as exact plans, priced in full as one front
    and ordered best first (cost, then the smaller grid)."""
    costs = front_costs(
        profile, [Distribution(tuple(axes)) for axes in winners], topology
    )
    plans = [
        _plan(axes, cost, True, searched, topology)
        for axes, cost in zip(winners, costs)
    ]
    plans.sort(key=lambda pl: (pl.cost, pl.grid))
    return plans


def _spaces(
    profile: CommProfile,
    nprocs: int,
    block_sizes: Sequence[int],
    topology: Topology | None,
    window: Sequence[tuple[int, int]] | None = None,
) -> list[tuple[tuple[int, ...], list[list[AxisDistribution]]]]:
    """Every realizable grid with its per-axis candidate lists."""
    spaces = list(candidate_spaces(profile, nprocs, block_sizes, topology, window))
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
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    seed: int = 0,
    restarts: int = 8,
    topology: Topology | None = None,
) -> DistributionPlan:
    """Choose the distribution minimizing modeled hops for ``nprocs``.

    Exhaustive (hop-optimal) when the work of solving every grid shape
    exactly is affordable; otherwise local search.  Because every hop
    metric decomposes over axes (all :mod:`repro.topology` models are
    separable), the exhaustive work is the per-axis candidate *sum* per
    grid (not the cross-product), so ``exhaustive_limit`` bounds that
    sum over all grid shapes — the cross-product space actually covered
    (reported in ``searched``) is usually far larger.  ``topology``
    prices hops on the machine's interconnect and rules out
    unrealizable grid shapes; the default is the paper's open L1 grid.
    """
    spaces = _spaces(profile, nprocs, block_sizes, topology)
    work = sum(len(c) for _, cands in spaces for c in cands)
    with obs.span(
        "distrib.plan",
        nprocs=nprocs,
        grids=len(spaces),
        candidates=work,
        exhaustive=work <= exhaustive_limit,
    ):
        if work > exhaustive_limit:
            # No tie rule here: the search's one result is priced in full.
            obs.annotate(grids_tied=0, grids_priced=1)
            return _local_search(
                profile, nprocs, block_sizes, seed, restarts, topology
            )
        solved = [
            _best_axes(profile, cands, _metrics_for_grid(topology, grid))
            for grid, cands in spaces
        ]
        # Cost orders by hops first and a grid's hop sum is its winner's
        # own (less the profile's fixed hops), so a grid above the
        # minimum cannot win: only the tied grids need ``moved``.
        least = min(hops for _, hops in solved)
        tied = [axes for axes, hops in solved if hops == least]
        obs.annotate(grids_tied=len(tied), grids_priced=len(tied))
        return _priced(profile, tied, covered_size(spaces), topology)[0]


def rank_plans(
    profile: CommProfile,
    nprocs: int,
    k: int = 4,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    max_grids: int = 64,
    seed: int = 0,
    window: Sequence[tuple[int, int]] | None = None,
    topology: Topology | None = None,
) -> list[DistributionPlan]:
    """The ``k`` best distributions, one per grid shape, best first.

    Used by the inter-phase remap planner, which needs *alternatives*:
    the best distribution for one phase may lose globally once
    redistribution edges are priced in.  ``window`` (default: the
    profile's own) lets that planner size candidates over the union of
    all phase windows so every candidate owns every remapped cell.
    """
    spaces = _spaces(profile, nprocs, block_sizes, topology, window)
    if len(spaces) > max_grids:
        rng = random.Random(seed)
        keep = {most_balanced([grid for grid, _ in spaces])}
        keep.update(
            spaces[i][0] for i in rng.sample(range(len(spaces)), max_grids - 1)
        )
        spaces = [space for space in spaces if space[0] in keep]
    # Ranking needs every grid's full cost, so every winner is priced.
    winners = [
        _best_axes(profile, cands, _metrics_for_grid(topology, grid))[0]
        for grid, cands in spaces
    ]
    return _priced(profile, winners, len(spaces), topology)[: max(1, k)]


# -- local search -------------------------------------------------------------


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
) -> DistributionPlan:
    def supported(g: tuple[int, ...]) -> bool:
        return topology is None or topology.supports_grid(g)

    def best_on(g: tuple[int, ...]) -> tuple[list[AxisDistribution], int]:
        return _best_axes(
            profile,
            grid_candidates(profile.window, g, block_sizes),
            _metrics_for_grid(topology, g),
        )

    rng = random.Random(seed)
    rank = profile.template_rank
    searched = 0
    best_axes: list[AxisDistribution] | None = None
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
        axes, hops = best_on(grid)
        searched += 1
        improved = True
        while improved:
            improved = False
            for ng in _neighbor_grids(grid):
                if not supported(ng):
                    continue
                n_axes, n_hops = best_on(ng)
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
                best_axes, _ = best_on(grid)
                searched += 1
                break
    assert best_axes is not None
    # The search's one result: priced by the scalar evaluator.
    cost = profile.evaluate(Distribution(tuple(best_axes)), topology)
    return _plan(best_axes, cost, False, searched, topology)
