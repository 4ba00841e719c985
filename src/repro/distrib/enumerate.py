"""Candidate generation for the distribution planner.

The search space has two nested choices: the *shape* of the processor
grid (an ordered factorization of the machine size P over the template
axes) and, per axis, the *scheme* — block with the covering block size,
cyclic, or block-cyclic with a small block, each a scheme record of
:mod:`repro.machine.distribution`.  This module enumerates both, and
builds the three naive uniform baselines (all-block, all-cyclic,
identity) the planner is benchmarked against.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..machine.distribution import (
    AxisDistribution,
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    covering_block,
    uniform,
)
from ..topology import Topology
from ..topology.models import factorizations, most_balanced
from .costmodel import CommProfile, CostVector
from .vectorized import front_costs

#: The block-cyclic block sizes every axis tries (ascending).
DEFAULT_BLOCK_SIZES = (2, 4, 8)


def grid_factorizations(nprocs: int, rank: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of ``nprocs`` into ``rank`` axis counts.

    ``grid_factorizations(4, 2) == [(1, 4), (2, 2), (4, 1)]``.  The
    order is deterministic (lexicographic) so search results are
    stable.  Delegates to the one enumerator shared with the topology
    defaults (:func:`repro.topology.models.factorizations`), so the
    planner's candidate space and the machines' own grid choices can
    never diverge.
    """
    return factorizations(nprocs, rank)


def balanced_factorization(nprocs: int, rank: int) -> tuple[int, ...]:
    """The most nearly-cubic grid shape (minimal max/min spread)."""
    return most_balanced(grid_factorizations(nprocs, rank))


def axis_candidates(lo: int, extent: int, nprocs: int) -> list[AxisDistribution]:
    """All axis schemes for one template axis on ``nprocs`` processors.

    * block, with the covering block size (smaller blocks would leave
      cells of the window un-owned — a contract violation);
    * cyclic (only meaningful for nprocs > 1);
    * block-cyclic for each of :data:`DEFAULT_BLOCK_SIZES` strictly
      between 1 (= cyclic) and the covering block (= block).

    On one processor every scheme is the same no-communication mapping,
    so a single covering block candidate is emitted.
    """
    cover = covering_block(extent, nprocs)
    out: list[AxisDistribution] = [Block(nprocs, cover, lo)]
    if nprocs > 1:
        out.append(Cyclic(nprocs, lo))
        for b in DEFAULT_BLOCK_SIZES:
            if 1 < b < cover:
                out.append(BlockCyclic(nprocs, b, lo))
    return out


def grid_candidates(
    window: Sequence[tuple[int, int]], grid: Sequence[int]
) -> list[list[AxisDistribution]]:
    """The per-axis candidate lists of one grid shape over ``window``
    (per-axis ``(lo, hi)`` cells): the one place they are built."""
    return [
        axis_candidates(lo, hi - lo + 1, p)
        for (lo, hi), p in zip(window, grid)
    ]


def candidate_spaces(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> Iterator[tuple[tuple[int, ...], list[list[AxisDistribution]]]]:
    """Yield ``(grid shape, per-axis candidate lists)`` per factorization.

    ``topology`` drops grid shapes the machine cannot realize (e.g. a
    hypercube only folds onto power-of-two axis counts); the default
    grid machine accepts every factorization.
    """
    for grid in grid_factorizations(nprocs, profile.template_rank):
        if topology is not None and not topology.supports_grid(grid):
            continue
        yield grid, grid_candidates(profile.window, grid)


def covered_size(
    spaces: Iterable[tuple[tuple[int, ...], list[list[AxisDistribution]]]],
) -> int:
    """Candidate distributions covered by ``spaces``: the per-grid
    cross-product of the per-axis candidate lists, summed over grids."""
    return sum(math.prod(len(c) for c in cands) for _, cands in spaces)


def space_size(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> int:
    """Total number of candidate distributions across all grid shapes."""
    return covered_size(candidate_spaces(profile, nprocs, topology))


def naive_distributions(
    profile: CommProfile, nprocs: int
) -> dict[str, Distribution]:
    """The three uniform baselines the planner must beat or match.

    ``all-block`` and ``all-cyclic`` live on the most balanced grid
    shape; ``identity`` is the paper's analytic one-processor-per-cell
    machine (an unbounded-resource lower bound for locality, but not
    for hops: blocks contract the grid metric).
    """
    rank = profile.template_rank
    grid = balanced_factorization(nprocs, rank)
    return {
        "all-block": uniform("block", profile.window, grid),
        "all-cyclic": uniform("cyclic", profile.window, grid),
        "identity": Distribution.identity(rank),
    }


def naive_costs(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> dict[str, CostVector]:
    """Modeled cost of each naive baseline (priced on ``topology``),
    as one :func:`~repro.distrib.vectorized.front_costs` front."""
    naive = naive_distributions(profile, nprocs)
    costs = front_costs(profile, list(naive.values()), topology)
    return dict(zip(naive.keys(), costs))
