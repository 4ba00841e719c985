"""Candidate generation for the distribution planner.

The search space has two nested choices: the *shape* of the processor
grid (an ordered factorization of the machine size P over the template
axes) and, per axis, the *scheme* — block with the covering block size,
cyclic, or block-cyclic with a small block.  This module enumerates
both, and builds the three naive uniform baselines (all-block,
all-cyclic, identity) the planner is benchmarked against.

A per-axis scheme is enumerated once, as a front row ``(mode, nprocs,
block, base)`` of integers (:func:`axis_rows`, :func:`row_spaces`): the
search prices whole fronts of rows and builds a scheme record of
:mod:`repro.machine.distribution` only for each plan it returns.  The
grid shapes are :func:`repro.topology.models.factorizations`, the one
enumerator the topologies' default grids use too, so the planner's
candidate space and a machine's own grid choice never diverge.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..machine.distribution import Distribution, covering_block, uniform
from ..topology import Topology
from ..topology.models import factorizations, most_balanced
from .costmodel import CommProfile, CostVector
from .vectorized import _MODE_BLOCK, _MODE_WRAP, evaluate_front

#: The block-cyclic block sizes every axis tries (ascending).
DEFAULT_BLOCK_SIZES = (2, 4, 8)


#: One per-axis candidate as a front row: ``(mode, nprocs, block, base)``
#: in the codes of :mod:`repro.distrib.vectorized`.
Row = tuple[int, int, int, int]


def axis_rows(lo: int, extent: int, nprocs: int) -> list[Row]:
    """All axis schemes for one template axis on ``nprocs`` processors,
    as front rows, in enumeration order:

    * block, with the covering block size (smaller blocks would leave
      cells of the window un-owned — a contract violation);
    * cyclic (only meaningful for nprocs > 1);
    * block-cyclic for each of :data:`DEFAULT_BLOCK_SIZES` strictly
      between 1 (= cyclic) and the covering block (= block).

    On one processor every scheme is the same no-communication mapping,
    so a single covering block row is emitted.
    """
    cover = covering_block(extent, nprocs)
    rows = [(_MODE_BLOCK, nprocs, cover, lo)]
    if nprocs > 1:
        rows.append((_MODE_WRAP, nprocs, 1, lo))
        rows.extend((_MODE_WRAP, nprocs, b, lo) for b in DEFAULT_BLOCK_SIZES if 1 < b < cover)
    return rows


def row_spaces(
    profile: CommProfile,
    nprocs: int,
    topology: Topology | None = None,
) -> Iterator[tuple[tuple[int, ...], list[list[Row]]]]:
    """Yield ``(grid shape, per-axis row lists)`` per factorization,
    over the profile's window (per-axis ``(lo, hi)`` cells).

    ``topology`` drops grid shapes the machine cannot realize (e.g. a
    hypercube only folds onto power-of-two axis counts); the default
    grid machine accepts every factorization.
    """
    for grid in factorizations(nprocs, profile.template_rank):
        if topology is not None and not topology.supports_grid(grid):
            continue
        yield grid, [
            axis_rows(lo, hi - lo + 1, p) for (lo, hi), p in zip(profile.window, grid)
        ]


def covered_size(spaces: Iterable[tuple[tuple[int, ...], Sequence[Sequence]]]) -> int:
    """Candidate distributions covered by ``spaces``: the per-grid
    cross-product of the per-axis row lists, summed over grids."""
    return sum(math.prod(len(c) for c in cands) for _, cands in spaces)


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
    grid = most_balanced(factorizations(nprocs, rank))
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
    as one :func:`~repro.distrib.vectorized.evaluate_front` front."""
    naive = naive_distributions(profile, nprocs)
    matrix = evaluate_front(profile, list(naive.values()), topology)
    return {name: CostVector(*map(int, row)) for name, row in zip(naive, matrix)}
